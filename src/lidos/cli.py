"""Command-line front end: run scenarios, recompute their outputs from
traces, and generate synthetic landscape datasets. The run harness, with the
planners and statistics it imports, is loaded only by the commands that run
or summarize, so `lidos synth` never compiles or holds it."""

from __future__ import annotations

import argparse
import sys
from itertools import islice, product
from pathlib import Path

from .fork import WorkerLost, run_tasks
from .twin import synth_landscape, synth_option_names
from .writers import csv_text, remove_temporaries, write_atomic, write_chunks_atomic

# Plans per block of a table's text in `lidos synth`: a block's lines, floats
# and text are the writer's whole working set, about 0.16 MiB at 1,024.
TABLE_BLOCK = 1024


def main(argv=None, *, workers: int = 1) -> int:
    """Run one command; `workers` is the process count `lidos run`,
    `lidos summarize` and `lidos synth` may use (see
    `lidos.fork.run_tasks`). Returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.workers = workers
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, WorkerLost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_scenario(spec, *, workers: int = 1):
    """`lidos.harness.run_scenario`, imported on the first run. `lidos run`
    calls it through this name, where a caller may replace it."""
    from .harness import run_scenario
    return run_scenario(spec, workers=workers)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidos",
        description="Lifelong dynamic-optimization planning benchmark over "
                    "dataset-backed measurement twins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write all outputs")
    _scenario_args(run_p, _OVERRIDES)
    run_p.set_defaults(func=_cmd_run)

    # The traces fix the planners and repetitions, and nothing recomputed
    # from them reads `k`.
    sum_p = sub.add_parser("summarize", help="recompute the other outputs from traces.csv")
    _scenario_args(sum_p, ("seed", "stride"))
    sum_p.set_defaults(func=_cmd_summarize)

    synth_p = sub.add_parser("synth", help="generate a synthetic two-environment dataset")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument("--seed", type=int, default=0, help="landscape seed")
    synth_p.add_argument("--options", type=int, default=6, help="number of options")
    synth_p.add_argument("--domain-size", type=int, default=5, help="values per option")
    synth_p.add_argument("--peaks", type=int, default=40, help="number of basins")
    synth_p.add_argument("--peak-shift", type=int, default=1,
                         help="cyclic shift of basin depths between environments")
    synth_p.set_defaults(func=_cmd_synth)
    return parser


# Scenario flags: each overrides the manifest key of its name.
_OVERRIDES = {
    "seed": "override the base seed",
    "repetitions": "override repetitions",
    "planners": "comma-separated planner kinds, overrides the manifest",
    "k": "override the adaptation interval",
    "stride": "override the trajectory stride",
}


def _scenario_args(p: argparse.ArgumentParser, keys) -> None:
    p.add_argument("--scenario", required=True, help="scenario manifest path")
    p.add_argument("--out", required=True, help="output directory")
    for key in keys:
        p.add_argument(f"--{key}", default=None, help=_OVERRIDES[key])


def _load_spec(args):
    from .harness import parse_scenario
    return parse_scenario(args.scenario, {key: getattr(args, key) for key in _OVERRIDES
                                          if getattr(args, key, None) is not None})


def _refuse_unusable_out(out: str) -> None:
    """Refuse an `--out` that is a file or a path under one, where no output
    directory can be made, before anything runs or is created."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"--out: {path} is not a directory")
            return


def _cmd_run(args) -> int:
    from .harness import write_bundle_outputs
    spec = _load_spec(args)
    _refuse_unusable_out(args.out)
    bundle = run_scenario(spec, workers=args.workers)
    summary = write_bundle_outputs(bundle, args.out)
    print(f"ran {len(bundle.labels)} planner(s) x {spec.repetitions} repetition(s); "
          f"outputs in {Path(args.out).resolve()}")
    for entry in summary.ranks:
        print(f"  rank {entry.rank}: {entry.label} (median {entry.median:g})")
    return 0


def _cmd_summarize(args) -> int:
    from .harness import bundle_from_traces, write_bundle_outputs
    bundle = bundle_from_traces(_load_spec(args), Path(args.out) / "traces.csv",
                                workers=args.workers)
    write_bundle_outputs(bundle, args.out, include_traces=False)
    print(f"summary tables rewritten in {Path(args.out).resolve()}")
    return 0


def _cmd_synth(args) -> int:
    _refuse_unusable_out(args.out)
    landscape = synth_landscape(
        n_options=args.options,
        domain_size=args.domain_size,
        n_peaks=args.peaks,
        peak_shift=args.peak_shift,
        noise_seed=args.seed,
    )
    option_names = synth_option_names(args.options)
    out = Path(args.out)

    def write_tables(share):
        for name, values in share:
            yield write_chunks_atomic(out / name,
                                      _table_chunks(option_names, values, args.domain_size))

    tables = list(zip(("env_a.csv", "env_b.csv"), landscape))
    try:
        # One worker per table, each writing from the arrays it inherits.
        run_tasks(write_tables, tables, args.workers, "table")
    except BaseException:
        # A worker that is lost, or killed once another is, leaves its
        # temporary behind.
        for name, _ in tables:
            remove_temporaries(out / name)
        raise
    manifest = "\n".join(
        [
            "system: synth",
            f"seed: {args.seed}",
            "repetitions: 50",
            "k: 150",
            "stride: 15",
            "planners: lidos, lidos_sta, pseudo_dynamic, stationary",
            "environment: A env_a.csv minimize",
            "environment: B env_b.csv minimize",
            "leg: A 150",
            "leg: B 150",
            "",
        ]
    )
    write_atomic(out / "scenario.txt", manifest)
    print(f"synthetic dataset ({option_names} x {len(landscape[0])} plans) "
          f"and scenario manifest written in {out.resolve()}")
    return 0


def _table_chunks(option_names: tuple[str, ...], values, domain_size: int):
    """The `csv_text` of one environment of a `synth_landscape`: its header,
    and then the lines of each block of `TABLE_BLOCK` plans. `values` is the
    environment's array in product order, which is the sorted order of the
    plans, and each block's floats are taken from its slice. Plan cells are
    integers and performances floats, neither of which the CSV writer quotes,
    so the lines are joined directly. A plan's cells are `product`'s tuple
    over one shared list of an option's value strings, joined by commas; a
    single option's cells come from the range itself. Within
    `SYNTH_MAX_PLANS` two or more options have at most 2**10 values each, so
    no plan tuple is kept and what is held stays within one block for every
    shape."""
    n = len(option_names)
    cells = (map(",".join, product(*[[str(v) for v in range(domain_size)]] * n)) if n > 1
             else map(str, range(domain_size)))
    yield csv_text([*option_names, "performance"], ())
    for start in range(0, len(values), TABLE_BLOCK):
        yield "".join([f"{cell},{value!r}\n" for cell, value
                       in zip(islice(cells, TABLE_BLOCK),
                              values[start:start + TABLE_BLOCK].tolist())])

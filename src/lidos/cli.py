"""Command-line front end: run scenarios, recompute summaries from traces,
emit trajectory tables, and generate synthetic landscape datasets."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import (
    ScenarioSpec,
    WorkerLost,
    bundle_from_traces,
    csv_text,
    emit_trajectories,
    parse_scenario,
    run_scenario,
    write_atomic,
    write_bundle_outputs,
)
from .twin import MeasurementTable, synth_landscape


def main(argv=None, *, workers: int = 1) -> int:
    """Run one command; `workers` is the process count `lidos run` may use
    (see `run_scenario`). Returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.workers = workers
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, WorkerLost) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The `lidos` program: `main`, with the repetitions of `lidos run` spread
    over every CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    sys.exit(main(workers=cpus))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidos",
        description="Lifelong dynamic-optimization planning benchmark over "
                    "dataset-backed measurement twins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write all outputs")
    _scenario_args(run_p)
    run_p.set_defaults(func=_cmd_run)

    sum_p = sub.add_parser("summarize", help="recompute statistics from emitted traces")
    _scenario_args(sum_p)
    sum_p.set_defaults(func=_cmd_summarize)

    traj_p = sub.add_parser("trajectories", help="emit stride-sampled trajectory tables")
    _scenario_args(traj_p)
    traj_p.set_defaults(func=_cmd_trajectories)

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


def _scenario_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario manifest path")
    p.add_argument("--out", required=True, help="output directory")
    for key, help_text in _OVERRIDES.items():
        p.add_argument(f"--{key}", default=None, help=help_text)


def _load_spec(args) -> ScenarioSpec:
    return parse_scenario(args.scenario, {key: getattr(args, key) for key in _OVERRIDES
                                          if getattr(args, key) is not None})


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    bundle = run_scenario(spec, workers=args.workers)
    summary = write_bundle_outputs(bundle, args.out)
    print(f"ran {len(bundle.labels)} planner(s) x {spec.repetitions} repetition(s); "
          f"outputs in {Path(args.out).resolve()}")
    for entry in summary.ranks:
        print(f"  rank {entry.rank}: {entry.label} (median {entry.median:g})")
    return 0


def _cmd_summarize(args) -> int:
    bundle = bundle_from_traces(_load_spec(args), Path(args.out) / "traces.csv")
    write_bundle_outputs(bundle, args.out, include_traces=False)
    print(f"summary tables rewritten in {Path(args.out).resolve()}")
    return 0


def _cmd_trajectories(args) -> int:
    bundle = bundle_from_traces(_load_spec(args), Path(args.out) / "traces.csv")
    emit_trajectories(bundle, Path(args.out) / "trajectories.csv")
    print(f"trajectories written in {Path(args.out).resolve()}")
    return 0


def _cmd_synth(args) -> int:
    table_a, table_b = synth_landscape(
        n_options=args.options,
        domain_size=args.domain_size,
        n_peaks=args.peaks,
        peak_shift=args.peak_shift,
        noise_seed=args.seed,
    )
    out = Path(args.out)
    write_atomic(out / "env_a.csv", _table_csv_text(table_a))
    write_atomic(out / "env_b.csv", _table_csv_text(table_b))
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
    print(f"synthetic dataset ({table_a.option_names} x {len(table_a)} plans) "
          f"and scenario manifest written in {out.resolve()}")
    return 0


def _table_csv_text(table: MeasurementTable) -> str:
    return csv_text(
        list(table.option_names) + ["performance"],
        (list(plan) + [repr(table.rows[plan])] for plan in sorted(table.rows)),
    )


if __name__ == "__main__":
    entry()

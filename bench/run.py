"""End-to-end benchmark of the lidos CLI.

    python3 bench/run.py --workload synth-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark runs `src/lidos` from
that checkout. With `--trace 0` it runs whole rounds of `lidos synth`,
`lidos run` and `lidos summarize`, one child process at a time, and times
them from outside. With `--trace 1` it runs one round in this process with
every layer's public functions wrapped in spans (see tracing.py). Either way
it checks every output (see checks.py), prints the sha256 of every input and
output file, and prints as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Generated inputs and results go to `bench/out/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    BenchError,
    input_problems,
    load_input_tables,
    prepare_round,
    print_digests,
    require_program,
    result,
    run_lidos,
)
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

# name -> unit of the metrics a run without tracing reports.
END_TO_END = {
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
    "run_s": "s",
    "run_peak_rss_mb": "MB",
    "summarize_s": "s",
}


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Untraced run: whole rounds of synth, run and summaries."""
    setup, setup_rss, run, run_rss, summarize = [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    pool = checks.A12Pool()
    for round_no in range(workload.rounds(seconds)):
        sub, synth_dir, input_dir, out = prepare_round(workload, seed, round_no, work)
        synth_dir.parent.mkdir(parents=True)
        log = synth_dir.parent / "stderr.txt"
        attempted += 1
        call = run_lidos(workload.synth_args(synth_dir), log)
        if not call.ok:
            raise BenchError(f"set-up failed: lidos {' '.join(workload.synth_args(synth_dir))}")
        setup.append(call.wall_s)
        setup_rss.append(call.peak_rss_mb)
        manifest = make_inputs(workload, sub, synth_dir, input_dir)
        tables = load_input_tables(manifest)
        problems += input_problems(workload, synth_dir, tables)

        scenario = ["--scenario", str(manifest), "--out", str(out)]
        attempted += 1 + workload.summaries_per_round
        call = run_lidos(["run", *scenario], log)
        if not call.ok:
            failed += 1 + workload.summaries_per_round
            continue
        run.append(call.wall_s)
        run_rss.append(call.peak_rss_mb)
        written = checks.digests(out)
        found, finals = checks.check_outputs(out, tables, workload.repetitions)
        problems += found
        pool.add(finals, workload.repetitions)
        for _ in range(workload.summaries_per_round):
            call = run_lidos(["summarize", *scenario], log)
            if not call.ok:
                failed += 1
                continue
            summarize.append(call.wall_s)
            problems += checks.check_rewrites(written, checks.digests(out))
        print_digests(f"{workload.name} seed {seed} round {round_no} (scenario seed {sub})",
                      [manifest.parent, out],
                      f"python3 bench/run.py --workload {workload.name} --seed {seed} "
                      f"--seconds {seconds:g} --trace 0")
    if not run or not summarize:
        raise BenchError("no `lidos run` or `lidos summarize` call succeeded")
    problems += pool.problems(workload.a12_floor)
    values = {
        "setup_s": statistics.median(setup),
        "setup_peak_rss_mb": statistics.median(setup_rss),
        # Mean per call: the calls are spread over the whole run, so their
        # mean averages the machine's speed drift over its length.
        "run_s": statistics.fmean(run),
        "run_peak_rss_mb": statistics.median(run_rss),
        "summarize_s": statistics.fmean(summarize),
    }
    return result(problems, attempted, failed,
                  {name: (values[name], unit) for name, unit in END_TO_END.items()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    work = BENCH_DIR / "out" / workload.name
    try:
        require_program()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if args.trace:
            import tracing

            outcome = tracing.traced_run(workload, args.seed, work)
        else:
            outcome = measure(workload, args.seed, args.seconds, work)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

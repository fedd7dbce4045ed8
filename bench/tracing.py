"""Traced run: one round, each CLI command in a fresh interpreter with the
public functions of every lidos layer wrapped in spans from outside the
program.

Each wrapper is installed where its name is looked up at call time:

- `lidos.cli` imports `run_scenario`, `synth_landscape` and `write_atomic`
  by name;
- `lidos.harness` imports the stats functions and `load_measurements` by
  name, and calls its own functions through its namespace;
- `lidos.planner` looks up `assign_auxiliary` and `environmental_selection`
  in its own namespace, and `lidos.mmo.environmental_selection` calls
  `nondominated_sort` and `crowding_distance` through the mmo namespace;
- planner methods, `CyberTwin.measure`/`repair` and
  `ConfigSpace.random_plan` are patched on their classes.

A span is (name, start, end, parent). Spans are kept in memory and written to
`spans_<command>.csv` when the traced process ends. A layer's self time is
the total duration of its spans minus the time their direct child spans take.
The run also times `lidos run` with no wrappers installed, in fresh
interpreters before and after the traced one, and reports the difference as
the tracing overhead.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
from common import (
    ROOT,
    SRC,
    BenchError,
    child_env,
    input_problems,
    load_input_tables,
    prepare_round,
    print_digests,
    result,
)
from workloads import PLANNERS, Workload, make_inputs

# Pairs whose number of splits stays at or below this take the exact
# enumeration in `lidos.stats.wilcoxon_rank_sum`; larger ones the normal
# approximation.
EXACT_RANK_SUM_LIMIT = 200_000
IMPORT_REPEATS = 5

# name -> (unit, better) of the metrics a traced run reports. `_s` is self time.
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.import_s": ("s", "lower"),
    "harness.load_scenario_tables_s": ("s", "lower"),
    "harness.run_scenario_s": ("s", "lower"),
    "harness.summarize_bundle_s": ("s", "lower"),
    "harness.trajectory_rows_s": ("s", "lower"),
    "harness.read_traces_csv_s": ("s", "lower"),
    "harness.read_traces_csv.rows": ("count", "lower"),
    "harness.traces_csv_text_s": ("s", "lower"),
    "harness.traces_csv.bytes": ("bytes", "lower"),
    "harness.write_atomic_s": ("s", "lower"),
    "harness.write_atomic.bytes": ("bytes", "lower"),
    "planner.init_run_s": ("s", "lower"),
    **{name: spec for kind in PLANNERS for name, spec in (
        (f"planner.step_generation.{kind}_s", ("s", "lower")),
        (f"planner.step_generation.{kind}.calls", ("count", "lower")),
    )},
    **{f"planner.on_environment_change.{kind}_s": ("s", "lower") for kind in PLANNERS},
    "planner.legs.budget": ("count", "higher"),
    "planner.legs.stall": ("count", "lower"),
    "planner.legs.coverage": ("count", "higher"),
    "planner.genuine_measurements": ("count", "lower"),
    **{name: spec for fn in ("assign_auxiliary", "environmental_selection",
                             "nondominated_sort", "crowding_distance")
       for name, spec in ((f"mmo.{fn}_s", ("s", "lower")),
                          (f"mmo.{fn}.calls", ("count", "lower")))},
    "twin.synth_landscape_s": ("s", "lower"),
    "twin.load_measurements_s": ("s", "lower"),
    "twin.load_measurements.rows": ("count", "lower"),
    "twin.measure_s": ("s", "lower"),
    "twin.measure.calls": ("count", "lower"),
    "twin.measure.genuine": ("count", "lower"),
    "twin.repair_s": ("s", "lower"),
    "twin.repair.calls": ("count", "lower"),
    "twin.repair.passthrough": ("count", "higher"),
    "twin.repair.memo_hits": ("count", "higher"),
    "twin.repair.searches": ("count", "lower"),
    "space.random_plan.calls": ("count", "lower"),
    "stats.wilcoxon_rank_sum_s": ("s", "lower"),
    "stats.wilcoxon_rank_sum.exact_calls": ("count", "lower"),
    "stats.wilcoxon_rank_sum.approx_calls": ("count", "lower"),
    "stats.scott_knott_s": ("s", "lower"),
    "stats.speedup_s": ("s", "lower"),
    "stats.a12_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def span(self, fn, name, observe=None):
        """Wrap `fn` so each call records a span; `name` is a string or a
        function of the call's arguments. `observe(args, result)` runs after
        the span closes."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name if isinstance(name, str) else name(args),
                                start, end, parent)
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` with `make(original)` until `restore`. A name
        the program no longer has is reported and left out, and its metrics
        read 0."""
        original = vars(owner).get(attr)
        if original is None:
            sys.stderr.write(f"tracing: {getattr(owner, '__name__', owner)}.{attr} "
                             "is gone; its metrics read 0\n")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        calls: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - child[i])
            calls[name] += 1
        return totals, calls

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start", "end", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent))


def install_synth(tracer: Tracer) -> None:
    from lidos import cli

    tracer.patch(cli, "synth_landscape", lambda f: tracer.span(f, "twin.synth_landscape"))


def install_run(tracer: Tracer) -> None:
    from lidos import baselines, cli, harness, mmo, planner, space, twin

    span, count = tracer.span, tracer.counts

    def counted(metric, size):
        def observe(args, out):
            count[metric] += size(args, out)
        return observe

    def named(name):
        return lambda f: span(f, name)

    tracer.patch(cli, "run_scenario", named("harness.run_scenario"))
    for fn in ("load_scenario_tables", "summarize_bundle", "trajectory_rows"):
        tracer.patch(harness, fn, named(f"harness.{fn}"))
    tracer.patch(harness, "read_traces_csv", lambda f: span(
        f, "harness.read_traces_csv", counted(
            "harness.read_traces_csv.rows",
            lambda a, out: sum(len(t.events) for t in out[1].values()))))
    tracer.patch(harness, "traces_csv_text", lambda f: span(
        f, "harness.traces_csv_text", counted(
            "harness.traces_csv.bytes", lambda a, out: len(out.encode()))))
    for module in (harness, cli):
        tracer.patch(module, "write_atomic", lambda f: span(
            f, "harness.write_atomic", counted(
                "harness.write_atomic.bytes", lambda a, out: len(a[1].encode()))))
    tracer.patch(harness, "load_measurements", lambda f: span(
        f, "twin.load_measurements", counted(
            "twin.load_measurements.rows", lambda a, out: len(out))))
    tracer.patch(harness, "wilcoxon_rank_sum", lambda f: span(
        f, "stats.wilcoxon_rank_sum", lambda a, out: count.update([
            "stats.wilcoxon_rank_sum.exact_calls"
            if math.comb(len(a[0]) + len(a[1]), len(a[0])) <= EXACT_RANK_SUM_LIMIT
            else "stats.wilcoxon_rank_sum.approx_calls"])))
    for fn in ("scott_knott", "speedup", "a12"):
        tracer.patch(harness, fn, named(f"stats.{fn}"))

    tracer.patch(planner.BasePlanner, "init_run", named("planner.init_run"))
    tracer.patch(planner.BasePlanner, "step_generation", lambda f: span(
        f, lambda a: f"planner.step_generation.{a[0].kind}"))
    for cls in (planner.MmoPlanner, baselines.MmoRestartPlanner,
                baselines.PseudoDynamicPlanner, baselines.StationaryPlanner):
        tracer.patch(cls, "on_environment_change", lambda f: span(
            f, lambda a: f"planner.on_environment_change.{a[0].kind}"))

    def legs(f):
        def run_scenario_leg(self, measurement_budget=None):
            out = f(self, measurement_budget)
            # The leg loop tests coverage, then the budget, then the stall count.
            if self.twin.coverage() >= 1.0:
                count["planner.legs.coverage"] += 1
            elif measurement_budget is not None and \
                    self.epoch_measurements >= measurement_budget:
                count["planner.legs.budget"] += 1
            else:
                count["planner.legs.stall"] += 1
            return out
        return run_scenario_leg

    tracer.patch(planner.BasePlanner, "run_scenario_leg", legs)
    for fn in ("assign_auxiliary", "environmental_selection"):
        tracer.patch(planner, fn, named(f"mmo.{fn}"))
    for fn in ("nondominated_sort", "crowding_distance"):
        tracer.patch(mmo, fn, named(f"mmo.{fn}"))

    def measure(f):
        traced = span(f, "twin.measure")

        def wrapper(self, plan):
            before = self.counter
            out = traced(self, plan)
            count["twin.measure.genuine"] += self.counter != before
            return out
        return wrapper

    # An off-table plan repaired before under the same environment is a memo
    # hit: the program keeps nearest-plan answers on the table, which one run
    # shares across every planner and repetition.
    repaired: set = set()

    def repair(f):
        traced = span(f, "twin.repair")

        def wrapper(self, plan):
            out = traced(self, plan)
            key = (self.current.id, plan)
            if out == plan:
                count["twin.repair.passthrough"] += 1
            elif key in repaired:
                count["twin.repair.memo_hits"] += 1
            else:
                repaired.add(key)
                count["twin.repair.searches"] += 1
            return out
        return wrapper

    tracer.patch(twin.CyberTwin, "measure", measure)
    tracer.patch(twin.CyberTwin, "repair", repair)

    def random_plan(f):
        def wrapper(self, rng):
            count["space.random_plan.calls"] += 1
            return f(self, rng)
        return wrapper

    tracer.patch(space.ConfigSpace, "random_plan", random_plan)


def import_seconds() -> float:
    """Median time of `import lidos` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import lidos; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise BenchError(f"import lidos failed:\n{done.stderr[-2000:]}")
        times.append(float(done.stdout))
    return statistics.median(times)


def lidos_child(mode: str, argv: list[str], work: Path, tag: str) -> dict:
    """Run one CLI command in a fresh interpreter, traced unless `mode` is
    "plain"; returns what the child reports (see `child_main`)."""
    report = work / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), mode, str(report), *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, check=False)
    if done.returncode != 0:
        raise BenchError(f"traced lidos {' '.join(argv)} failed:\n{done.stderr[-2000:]}")
    return json.loads(report.read_text())


def traced_run(workload: Workload, seed: int, work: Path) -> dict:
    """Set-up, an untraced run, a traced run, a traced summarize and another
    untraced run, each in its own fresh interpreter, as the CLI runs: a
    process that has already freed large blocks (as the set-up does) keeps
    its heap, and the nearest-plan search then stops paying for fresh pages."""
    import_s = import_seconds()
    sub, synth_dir, input_dir, out = prepare_round(workload, seed, 0, work)
    synth_dir.parent.mkdir(parents=True)
    children = [lidos_child("synth", workload.synth_args(synth_dir), work, "synth")]
    manifest = make_inputs(workload, sub, synth_dir, input_dir)
    tables = load_input_tables(manifest)
    problems = input_problems(workload, synth_dir, tables)

    scenario = ["--scenario", str(manifest), "--out", str(out)]
    untraced = [lidos_child("plain", ["run", *scenario], work, "untraced0")["wall_s"]]
    written = checks.digests(out)
    for command in ("run", "summarize"):
        children.append(lidos_child("traced", [command, *scenario], work, command))
        problems += checks.check_rewrites(written, checks.digests(out))
    untraced.append(lidos_child("plain", ["run", *scenario], work, "untraced1")["wall_s"])
    problems += checks.check_rewrites(written, checks.digests(out))
    found, finals = checks.check_outputs(out, tables, workload.repetitions)
    pool = checks.A12Pool()
    pool.add(finals, workload.repetitions)
    problems += found + pool.problems(workload.a12_floor)
    print_digests(f"{workload.name} seed {seed} traced (scenario seed {sub})",
                  [input_dir, out],
                  f"python3 bench/run.py --workload {workload.name} --seed {seed} "
                  "--seconds 1 --trace 1")

    values: Counter[str] = Counter()
    for child in children:
        values.update(child["counts"])
        values.update({f"{name}_s": t for name, t in child["self_s"].items()})
        values.update({f"{name}.calls": n for name, n in child["calls"].items()})
    measurements = checks.read_traces(out / "traces.csv").values()
    values["planner.genuine_measurements"] = sum(
        e.is_measurement for events in measurements for e in events)
    traced_s = children[1]["wall_s"]
    untraced_s = statistics.fmean(untraced)
    values.update({
        "cli.import_s": import_s,
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    })
    return result(problems, 1 + len(untraced) + 2, 0,
                  {name: (values.get(name, 0), unit) for name, (unit, _) in PER_LAYER.items()})


def child_main(argv: list[str]) -> int:
    """`tracing.py MODE REPORT LIDOS_ARGS...`: run one lidos CLI command in
    this process and write REPORT, a JSON object with the command's wall time
    and, when traced, the self time and call count per span name and the
    counters. MODE is `synth` (synth_landscape wrapped), `traced` (every
    layer wrapped) or `plain` (nothing wrapped). Spans go to `spans_<command>.csv`
    beside REPORT."""
    mode, report, lidos_argv = argv[0], Path(argv[1]), argv[2:]
    sys.path.insert(0, str(SRC))
    from lidos import cli

    tracer = Tracer()
    if mode == "synth":
        install_synth(tracer)
    elif mode == "traced":
        install_run(tracer)
    main = cli.main if mode == "plain" else tracer.span(cli.main, f"cli.{lidos_argv[0]}")
    start = time.perf_counter()
    code = main(lidos_argv)
    wall = time.perf_counter() - start
    tracer.restore()
    if code != 0:
        return code
    self_s, calls = tracer.self_times()
    if mode != "plain":
        tracer.write(report.parent / f"spans_{lidos_argv[0]}.csv")
    report.write_text(json.dumps({"wall_s": wall, "self_s": self_s, "calls": calls,
                                  "counts": tracer.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))

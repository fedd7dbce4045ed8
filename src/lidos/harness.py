"""Scenario-driven experiment runner: repetitions across planners, trace CSVs,
summary tables, and plot-ready trajectory data."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from . import planner
from .baselines import PLANNER_KINDS, make_planner
from .fork import run_tasks
from .planner import TRACE_HEADER, RunTrace, derive_seed, planner_labels
from .space import ConfigSpace
from .stats import Summary, a12, quartiles, scott_knott, speedup, summarize, wilcoxon_rank_sum
from .twin import (DIRECTIONS, CyberTwin, Environment, MeasurementTable, load_measurements,
                   utf8_error)
from .writers import csv_text, write_atomic, write_chunks_atomic

TRAJECTORY_HEADER = ("planner", "measurement_index", "median_best", "iqr_best",
                     "env_change")
# The manifest keys that hold one value each, and the ScenarioSpec fields they set.
_VALUE_KEYS = {"system": "system", "seed": "base_seed", "repetitions": "repetitions",
               "planners": "planners", "k": "k", "stride": "trajectory_stride"}
_INT_KEYS = ("seed", "repetitions", "k", "stride")
# Records per block of `read_traces_csv`.
_TRACE_BLOCK = 4096
# The most stride marks a scenario's legs may make: `trajectory_rows` holds
# each mark, and a value per mark and repetition of a planner.
MAX_STRIDE_MARKS = 2**20


@dataclass(frozen=True)
class EnvironmentSource:
    environment: Environment
    dataset_path: Path


@dataclass(frozen=True)
class LegSpec:
    env_id: str
    measurement_budget: int


@dataclass(frozen=True)
class ScenarioSpec:
    system: str
    environments: tuple[EnvironmentSource, ...]
    legs: tuple[LegSpec, ...]
    planners: tuple[str, ...] = PLANNER_KINDS
    repetitions: int = 50
    k: int = 150
    base_seed: int = 0
    trajectory_stride: int = 15
    # Where each entry of a manifest key came from, `path:line` or `--key`,
    # and under "" the manifest itself; `parse_scenario` passes it in, a
    # `replace` copy keeps it, and a spec built in code has none.
    where: dict[str, list[str]] = field(default_factory=dict, kw_only=True, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        if not self.environments:
            raise self.error("scenario declares no environments", "")
        ids = [e.environment.id for e in self.environments]
        for i, env_id in enumerate(ids):
            if env_id in ids[:i]:
                raise self.error(f"duplicate environment id {env_id!r}", "environment", i)
        if len(self.legs) < 2:
            raise self.error("a transition scenario needs at least two legs", "")
        for i, leg in enumerate(self.legs):
            if leg.env_id not in ids:
                raise self.error(f"leg references undeclared environment {leg.env_id!r}",
                                 "leg", i)
            if leg.measurement_budget < 1:
                raise self.error("leg budgets must be positive", "leg", i)
        if not self.planners:
            raise self.error("scenario lists no planners", "planners")
        for kind in self.planners:
            if kind not in PLANNER_KINDS:
                raise self.error(f"unknown planner kind {kind!r}", "planners")
        for key in ("repetitions", "k", "stride"):
            if getattr(self, _VALUE_KEYS[key]) < 1:
                raise self.error(f"{key} must be positive", key)
        stride = self.trajectory_stride
        for i, total in enumerate(accumulate(leg.measurement_budget for leg in self.legs)):
            if total // stride > MAX_STRIDE_MARKS:
                # A stride given as a flag is named; else the leg that passes.
                key, index = ("stride", 0) if self.where.get("stride") == ["--stride"] \
                    else ("leg", i)
                raise self.error(f"legs of {total:,} measurements make {total // stride:,} "
                                 f"stride marks at stride {stride}, more than the "
                                 f"{MAX_STRIDE_MARKS:,} a scenario may have", key, index)

    def error(self, message: str, key: str, index: int = 0) -> ValueError:
        """An error in the `index`-th entry of manifest key `key`, or in the
        manifest as a whole under key "", that starts with the line, flag or
        path it came from when the spec was parsed."""
        places = self.where.get(key, ())
        return ValueError(f"{places[index]}: {message}" if index < len(places) else message)

    def environment_of(self, env_id: str) -> Environment:
        for source in self.environments:
            if source.environment.id == env_id:
                return source.environment
        raise KeyError(env_id)

    def final_environment(self) -> Environment:
        return self.environment_of(self.legs[-1].env_id)


def parse_scenario(path: str | Path, overrides: dict[str, str] | None = None) -> ScenarioSpec:
    """Parse a scenario manifest, with `overrides` (manifest key to raw text,
    as given on the command line) replacing its one-value keys before any
    value is checked. An error names the manifest line (`path:line:`) or the
    flag (`--key:`) its value came from; so do the errors `run_scenario`
    finds in the spec's datasets and leg budgets, also for a copy of the spec
    made with `dataclasses.replace`.

    Line-based key-value grammar (``#`` comments allowed)::

        system: synth_demo
        seed: 7
        repetitions: 50
        k: 150
        stride: 15
        planners: lidos, lidos_sta, pseudo_dynamic, stationary
        environment: A env_a.csv minimize [units]
        environment: B env_b.csv maximize [units]
        leg: A 150
        leg: B 150

    Relative dataset paths resolve against the manifest's directory.
    """
    path = Path(path)
    fields: dict[str, str] = {}
    # Where each entry of a key came from: `path:line`, or `--key` for an
    # override; the manifest's own path under "".
    where: dict[str, list[str]] = {"": [str(path)]}
    environments: list[EnvironmentSource] = []
    legs: list[list[str]] = []
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise utf8_error(path, exc) from None
    # The read made every line end "\n"; a form feed or U+2028, where
    # `str.splitlines` would also break, is text of its line, as in an editor.
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key, rest, here = key.strip().lower(), rest.strip(), f"{path}:{lineno}"
        if not sep or not rest:
            raise ValueError(f"{here}: expected 'key: value', got {raw!r}")
        if key == "environment":
            environments.append(_parse_environment(rest, path.parent, here))
        elif key == "leg":
            legs.append(rest.split())
            if len(legs[-1]) != 2:
                raise ValueError(f"{here}: expected 'leg: ENV BUDGET'")
        elif key not in _VALUE_KEYS:
            raise ValueError(f"{here}: unknown key {key!r}")
        elif key in fields:
            raise ValueError(f"{here}: duplicate key {key!r}")
        else:
            fields[key] = rest
        where.setdefault(key, []).append(here)
    for key, text in (overrides or {}).items():
        fields[key], where[key] = text, [f"--{key}"]

    if "system" not in fields:
        raise ValueError(f"{path}: missing 'system'")
    kwargs = {_VALUE_KEYS[key]: _int(text, where[key][0]) if key in _INT_KEYS else text
              for key, text in fields.items()}
    if "planners" in fields:
        kwargs["planners"] = tuple(p.strip() for p in fields["planners"].split(",") if p.strip())
    kwargs["legs"] = tuple(LegSpec(env_id, _int(budget, where["leg"][i]))
                           for i, (env_id, budget) in enumerate(legs))
    return ScenarioSpec(environments=tuple(environments), where=where, **kwargs)


def _parse_environment(rest: str, base_dir: Path, where: str) -> EnvironmentSource:
    tokens = rest.split()
    if len(tokens) < 3:
        raise ValueError(f"{where}: expected 'environment: ID PATH DIRECTION [UNITS]'")
    env_id = tokens[0]
    if tokens[-1] in DIRECTIONS:
        direction, units, after = tokens[-1], "", 1
    elif len(tokens) >= 4 and tokens[-2] in DIRECTIONS:
        direction, units, after = tokens[-2], tokens[-1], 2
    else:
        raise ValueError(f"{where}: direction must be one of {DIRECTIONS}")
    # The path is the text between the id and the direction, so it keeps
    # its inner whitespace; at least one token lies there.
    dataset = Path(rest[len(env_id):].rsplit(maxsplit=after)[0].strip())
    if not dataset.is_absolute():
        dataset = base_dir / dataset
    return EnvironmentSource(
        environment=Environment(id=env_id, direction=direction, units=units),
        dataset_path=dataset,
    )


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: expected an integer, got {text!r}") from None


# -- execution ---------------------------------------------------------------


@dataclass
class ResultBundle:
    """Everything one scenario execution produced: the traces, which hold
    the columns of `traces.csv` that the run decided, derive the others, and
    are the source of truth for every downstream statistic."""

    spec: ScenarioSpec
    labels: tuple[str, ...]
    traces: dict[tuple[str, int], RunTrace]

    def final_values(self, label: str) -> list[float]:
        """Best canonical target value at the end of each repetition."""
        return [
            self.traces[(label, rep)].final_best()
            for rep in range(self.spec.repetitions)
        ]


def load_scenario_tables(spec: ScenarioSpec) -> tuple[ConfigSpace, dict[str, MeasurementTable]]:
    tables: dict[str, MeasurementTable] = {}
    space: ConfigSpace | None = None
    for i, source in enumerate(spec.environments):
        try:
            table = load_measurements(source.dataset_path, source.environment)
        except OSError as exc:
            raise spec.error(str(exc), "environment", i) from None
        implied = table.implied_space()
        if space is None:
            space = implied
        elif implied != space:
            raise spec.error(
                f"dataset mismatch across environments: {source.environment.id!r} "
                "implies a different config space: " + space.difference(
                    implied, spec.environments[0].environment.id, source.environment.id),
                "environment", i)
        tables[source.environment.id] = table
    assert space is not None
    return space, tables


def run_scenario(spec: ScenarioSpec, *, workers: int = 1) -> ResultBundle:
    """Execute every planner x repetition: init under the first leg's
    environment, run each leg to its budget, firing an environment change
    between legs. Fully deterministic given (spec, base_seed).

    Each (planner, repetition) pair is independent of the others. With
    `workers` above 1 they run as separate tasks in that many forked worker
    processes (at most one per task), each of which loads the tables itself,
    and their results merge back in (planner, repetition) order, so the
    bundle is the same for any count. Where the platform cannot fork, or one
    worker is asked for, this process loads the tables and runs the pairs one
    after another.

    Every planner takes the population size and rates of `lidos.planner`,
    which `read_traces_csv` checks the legs against, and the spec's
    adaptation interval `k`."""
    for i, leg in enumerate(spec.legs):
        if leg.measurement_budget < planner.POPULATION_SIZE:
            raise spec.error(
                f"leg budget {leg.measurement_budget} is below the population size "
                f"{planner.POPULATION_SIZE}; initialization alone would exceed it", "leg", i)
    labeled = planner_labels(spec.planners)
    tasks = [(label, kind, rep) for label, kind in labeled for rep in range(spec.repetitions)]
    results = run_tasks(partial(_run_share, spec), tasks, workers, "repetition")
    return ResultBundle(
        spec=spec,
        labels=tuple(label for label, _ in labeled),
        traces=dict(zip(((label, rep) for label, _, rep in tasks), results)),
    )


def _run_share(spec: ScenarioSpec, share):
    """Load the scenario's tables, then run each (label, kind, repetition)
    task of `share` in order on a fresh twin: init under the first leg's
    environment, each leg to its budget, a change between legs. It yields
    each trace, every recorded row joined into `rows`, so that a worker
    sends back arrays of the decided columns and no pending tuples.

    This is the serial loop, and in a forked run the body of each worker. So
    a table that fails to load or check fails every worker before its first
    task, and worker 0's failure, the serial loop's, is raised; and the
    forking process loads no table, so it never holds the parse's blocks or
    the tables beside the workers."""
    space, tables = load_scenario_tables(spec)
    for _, kind, rep in share:
        twin = CyberTwin(space, tables.values())
        twin.set_environment(spec.legs[0].env_id)
        search = make_planner(kind, space, twin, derive_seed(spec.base_seed, kind, rep),
                              spec.k)
        search.init_run()
        search.run_scenario_leg(spec.legs[0].measurement_budget)
        for leg in spec.legs[1:]:
            search.on_environment_change(leg.env_id)
            search.run_scenario_leg(leg.measurement_budget)
        yield RunTrace(search.trace.rows, search.trace.env_ids)


# -- summaries ---------------------------------------------------------------


@dataclass(frozen=True)
class RankEntry:
    label: str
    rank: int
    median: float
    iqr: float


@dataclass(frozen=True)
class PairwiseRow:
    label: str
    p_value: float
    effect: float  # probability the dynamic planner beats `label`


@dataclass(frozen=True)
class SpeedupRow:
    """Per-repetition speedups of lidos against one baseline, inf for a miss;
    the median over the matched repetitions (None if none) and the misses."""
    label: str
    median: float | None
    misses: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class BundleSummary:
    summaries: dict[str, Summary]
    ranks: tuple[RankEntry, ...]
    pairwise: tuple[PairwiseRow, ...]
    speedups: tuple[SpeedupRow, ...]


def summarize_bundle(bundle: ResultBundle) -> BundleSummary:
    """Medians/IQRs per planner, pairwise tests of the dynamic planner against
    every other treatment, ranks across all treatments, and per-repetition
    post-change speedups.

    The tests and ranks take the canonical final values; medians and IQRs are
    in the final environment's units. Rank entries are sorted by rank, then
    canonical median, then IQR."""
    spec = bundle.spec
    finals = {label: bundle.final_values(label) for label in bundle.labels}
    sign = spec.final_environment().sign
    stats = summarize({label: [sign * v for v in values] for label, values in finals.items()})
    rank_of = scott_knott(finals, random.Random(derive_seed(spec.base_seed, "scott-knott")))
    ranks = sorted(
        (RankEntry(label, rank_of[label], stats[label].median, stats[label].iqr)
         for label in bundle.labels),
        key=lambda e: (e.rank, quartiles(finals[e.label])[1], e.iqr),
    )

    pairwise: list[PairwiseRow] = []
    speedups: list[SpeedupRow] = []
    if "lidos" in bundle.labels:
        lidos = finals["lidos"]
        for label in bundle.labels:
            if label == "lidos":
                continue
            other = finals[label]
            pairwise.append(PairwiseRow(label, wilcoxon_rank_sum(lidos, other),
                                        a12(lidos, other)))
            values = tuple(
                speedup(bundle.traces[(label, rep)], bundle.traces[("lidos", rep)])
                for rep in range(spec.repetitions)
            )
            # A miss is a repetition lidos lost, not an infinite win, so it
            # stays out of the median and is counted on its own.
            matched = [value for value in values if value != math.inf]
            speedups.append(SpeedupRow(
                label, quartiles(matched)[1] if matched else None,
                len(values) - len(matched), values))
    return BundleSummary(
        summaries=stats,
        ranks=tuple(ranks),
        pairwise=tuple(pairwise),
        speedups=tuple(speedups),
    )


# -- trace serialization -------------------------------------------------------


def traces_csv_text(label: str, rep: int, trace: RunTrace) -> str:
    """One repetition's rows of traces.csv, without the header. The label,
    the rep and each env id are quoted once, as `csv_text` quotes a cell; a
    number never needs quotes. The trailing empty cell keeps a lone empty
    cell from being written as ``""``."""
    events = trace.events
    head = csv_text(None, [(label, rep, "")])[:-2]
    env_ids = [csv_text(None, [(env_id, "")])[:-2] for env_id in trace.env_ids]
    ft, best_ft = ([repr(v) if v == v else "" for v in events[name].tolist()]
                   for name in ("ft", "best_ft"))
    return "".join([
        f"{head},{index},{env_ids[env]},{value},{best},{sent},{change}\n"
        for index, env, value, best, sent, change in zip(
            events["measurement_index"].tolist(), events["env"].tolist(), ft, best_ft,
            events["adaptation_sent"].view(np.uint8).tolist(),
            events["env_change"].view(np.uint8).tolist())])


def read_traces_csv(path: str | Path, spec: ScenarioSpec, *, workers: int = 1
                    ) -> tuple[tuple[str, ...], dict[tuple[str, int], RunTrace]]:
    """Rebuild run traces from an emitted CSV.

    Each row is checked by its kind: both flags are 0 or 1 and not both 1; a
    measurement or adaptation row holds finite `ft` and `best_ft`, and a
    change row leaves both empty. Within each (planner, rep), a row's
    `measurement_index` is the count of that trace's measurement rows up to
    it. Rows of one (planner, rep) keep their file order, also when rows of
    other keys come between them.

    Every label must be one that some planner list gives (see
    `planner_labels`). Every environment the file names must be declared in
    `spec`, the scenario the traces were run under, and each trace must
    follow its legs: the trace holds one change row per leg after the first,
    a change row opens the next leg, every leg holds a measurement row, and
    every row is in the environment of its leg. A leg holds fewer measurement
    rows than its budget plus one default population. A measurement row's
    `best_ft` is the least `ft` of its leg's measurement rows up to it, and an
    adaptation row holds that best as both its `ft` and its `best_ft`.

    The file is read `_TRACE_BLOCK` records at a time. With `workers` above
    1, a plain file of enough blocks is parsed in up to that many forked
    worker processes (see `lidos.tracefile`); the result, or the first error,
    is the same for any count. The file must not change while it is read."""
    from .tracefile import read_traces
    return read_traces(path, spec, _TRACE_BLOCK, workers)


def bundle_from_traces(spec: ScenarioSpec, path: str | Path, *, workers: int = 1
                       ) -> ResultBundle:
    """Rebuild a bundle from an emitted trace file, checked against `spec`
    (see `read_traces_csv`, which takes `workers`).

    The traces are the source of truth: the repetition count is adopted from
    the file (a run may have been executed with an overridden count)."""
    labels, traces = read_traces_csv(path, spec, workers=workers)
    if not traces:
        raise ValueError(f"{path}: trace file holds no events")
    reps = sorted({rep for _, rep in traces})
    if reps != list(range(len(reps))):
        raise ValueError(f"{path}: repetitions are not contiguous from 0: {reps}")
    for label in labels:
        for rep in reps:
            if (label, rep) not in traces:
                raise ValueError(f"{path}: missing trace for {label!r} repetition {rep}")
    if len(reps) != spec.repetitions:
        spec = replace(spec, repetitions=len(reps))
    return ResultBundle(spec=spec, labels=labels, traces=traces)


# -- trajectories --------------------------------------------------------------


def trajectory_rows(bundle: ResultBundle) -> list[tuple]:
    """Per planner and multiple of the spec's stride: median and IQR of the
    best-so-far value across repetitions, plus a change flag on the first
    stride row at or past each nominal leg boundary.

    Each repetition's value is in the units of the environment of the trace
    row it is read from. Legs end at generation granularity, so near a
    boundary one stride mark may hold repetitions in different legs, each
    value in its own environment's units."""
    spec = bundle.spec
    stride = spec.trajectory_stride
    *boundaries, nominal_total = accumulate(leg.measurement_budget for leg in spec.legs)
    flagged = {math.ceil(b / stride) * stride for b in boundaries}

    sign_of = {source.environment.id: source.environment.sign
               for source in spec.environments}
    marks = np.arange(stride, nominal_total + 1, stride)
    rows: list[tuple] = []
    for label in bundle.labels:
        # Best-so-far at each mark, one row per repetition; NaN before a
        # repetition's first measurement.
        at_marks = np.full((spec.repetitions, len(marks)), np.nan)
        for rep in range(spec.repetitions):
            trace = bundle.traces[(label, rep)]
            signs = np.array([sign_of[env_id] for env_id in trace.env_ids])
            measured = trace.events[trace.measurement_mask()]
            pos = np.searchsorted(measured["measurement_index"], marks, side="right") - 1
            reached = pos >= 0
            pos = pos[reached]
            at_marks[rep, reached] = signs[measured["env"][pos]] * measured["best_ft"][pos]
        for m, column in zip(marks.tolist(), at_marks.T):
            arr = column[~np.isnan(column)]
            if not len(arr):
                continue
            q25, q50, q75 = quartiles(arr)
            rows.append((label, m, q50, q75 - q25, int(m in flagged)))
    return rows


def trajectories_csv_text(bundle: ResultBundle) -> str:
    return csv_text(TRAJECTORY_HEADER, (
        [label, m, repr(median), repr(iqr), flag]
        for label, m, median, iqr, flag in trajectory_rows(bundle)
    ))


# -- emission -------------------------------------------------------------------


def render_text_summary(summary: BundleSummary, spec: ScenarioSpec) -> str:
    lines = [f"scenario: {spec.system}", f"direction: {spec.final_environment().direction}", ""]
    lines.append("planner medians (original units):")
    for label, stat in summary.summaries.items():
        lines.append(f"  {label:<16} median={stat.median:g} iqr={stat.iqr:g}")
    lines.append("")
    lines.append("ranks (1 = best, equal rank = statistically indistinguishable):")
    for entry in summary.ranks:
        lines.append(
            f"  rank {entry.rank}: {entry.label:<16} median={entry.median:g} iqr={entry.iqr:g}"
        )
    if summary.pairwise:
        lines.append("")
        lines.append("pairwise vs lidos (p-value, probability lidos is better):")
        for row in summary.pairwise:
            lines.append(f"  vs {row.label:<16} p={row.p_value:.4g} A12={row.effect:.3f}")
    if summary.speedups:
        lines.append("")
        lines.append("post-change speedup of lidos (median over matched repetitions):")
        for row in summary.speedups:
            ratio = "no ratio" if row.median is None else f"{row.median:g}x"
            lines.append(f"  vs {row.label:<16} {ratio} (missed {row.misses} of "
                         f"{spec.repetitions})")
    lines.append("")
    return "\n".join(lines)


def write_bundle_outputs(bundle: ResultBundle, out_dir: str | Path,
                         *, include_traces: bool = True) -> BundleSummary:
    out = Path(out_dir)
    summary = summarize_bundle(bundle)
    direction = bundle.spec.final_environment().direction
    if include_traces:
        # One repetition at a time: the whole file is never one string.
        write_chunks_atomic(out / "traces.csv", chain(
            [csv_text(TRACE_HEADER, ())],
            (traces_csv_text(label, rep, bundle.traces[(label, rep)])
             for label in bundle.labels for rep in range(bundle.spec.repetitions))))
    write_atomic(out / "trajectories.csv", trajectories_csv_text(bundle))
    write_atomic(out / "summary.csv", csv_text(
        ("planner", "median", "iqr", "direction"),
        ([label, repr(stat.median), repr(stat.iqr), direction]
         for label, stat in summary.summaries.items()),
    ))
    write_atomic(out / "pairwise.csv", csv_text(
        ("baseline", "p_value", "a12"),
        ([row.label, repr(row.p_value), repr(row.effect)] for row in summary.pairwise),
    ))
    write_atomic(out / "ranks.csv", csv_text(
        ("planner", "rank", "median", "iqr"),
        ([entry.label, entry.rank, repr(entry.median), repr(entry.iqr)]
         for entry in summary.ranks),
    ))
    write_atomic(out / "speedups.csv", csv_text(
        ("baseline", "rep", "speedup"),
        ([row.label, rep, repr(value)]
         for row in summary.speedups for rep, value in enumerate(row.values)),
    ))
    write_atomic(out / "summary.txt", render_text_summary(summary, bundle.spec))
    return summary

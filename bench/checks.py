"""Checks of one round's outputs against computations made apart from lidos.

Nothing here imports lidos. Every expected value is recomputed from the input
tables and from `traces.csv`, with numpy and scipy, by the definitions in the
repository README. Each check returns a list of problems, each prefixed with
the check's name; an empty list means the check passed.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import LEGS, PLANNERS, POPULATION, STRIDE

# Outputs are written with repr() and recomputed the same way, so they agree
# to the last bit today; the tolerance only spares a recomputation that sums
# in another order.
REL_TOL = 1e-12
ABS_TOL = 1e-15
# scipy's exact permutation p-value and the program's enumeration differ in
# the order they add up counts.
P_TOL = 1e-12


@dataclass(frozen=True)
class Event:
    index: int
    env: str
    ft: float | None
    best: float | None
    sent: bool
    change: bool

    @property
    def is_measurement(self) -> bool:
        return not self.sent and not self.change


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def read_table(path: Path) -> dict[tuple[int, ...], float]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {tuple(int(c) for c in row[:-1]): float(row[-1]) for row in reader if row}


def read_traces(path: Path) -> dict[tuple[str, int], list[Event]]:
    traces: dict[tuple[str, int], list[Event]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for label, rep, index, env, ft, best, sent, change in reader:
            traces.setdefault((label, int(rep)), []).append(Event(
                int(index), env, float(ft) if ft else None, float(best) if best else None,
                sent == "1", change == "1"))
    return traces


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file directly in `directory`, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- inputs ---------------------------------------------------------------------


def check_synth_tables(synth_dir: Path, options: int, domain_size: int) -> list[str]:
    """Both synthesised tables enumerate the whole space: domain^options rows
    over the same plans."""
    plans = {}
    for name in ("env_a.csv", "env_b.csv"):
        table = read_table(synth_dir / name)
        plans[name] = set(table)
        if len(table) != domain_size ** options:
            return [f"synth-tables: {name} holds {len(table)} plans, "
                    f"want {domain_size}^{options}"]
        if any(len(p) != options or min(p) < 0 or max(p) >= domain_size for p in table):
            return [f"synth-tables: {name} holds a plan outside {domain_size}^{options}"]
    if plans["env_a.csv"] != plans["env_b.csv"]:
        return ["synth-tables: the two environments hold different plans"]
    return []


def check_input_tables(tables: dict[str, dict], rows: int) -> list[str]:
    """The scenario's tables hold `rows` plans, the same in every environment."""
    plan_sets = [set(t) for t in tables.values()]
    if any(len(s) != rows for s in plan_sets):
        return [f"input-tables: want {rows} plans per environment, got "
                f"{[len(s) for s in plan_sets]}"]
    if any(s != plan_sets[0] for s in plan_sets):
        return ["input-tables: the environments hold different plans"]
    return []


# -- traces ---------------------------------------------------------------------


def check_traces(traces: dict[tuple[str, int], list[Event]],
                 tables: dict[str, dict], repetitions: int) -> list[str]:
    """Measurement rows are numbered 1, 2, 3, ...; every ft is a value of its
    leg's table; best_ft is the running minimum of ft since the last change
    marker; each leg stays below budget + one population; there are
    legs - 1 change markers."""
    want = {(label, rep) for label in PLANNERS for rep in range(repetitions)}
    if set(traces) != want:
        return [f"traces: (planner, rep) keys differ from {len(PLANNERS)} planners "
                f"x {repetitions} repetitions"]
    values = {env: set(table.values()) for env, table in tables.items()}
    problems = []
    for key in sorted(want):
        problem = _trace_problem(traces[key], values)
        if problem:
            problems.append(f"traces: {key[0]} rep {key[1]}: {problem}")
    return problems


def _trace_problem(events: list[Event], values: dict[str, set]) -> str | None:
    leg, expected_index, leg_count, run_min = 0, 1, 0, None
    for event in events:
        if event.change:
            if leg_count >= LEGS[leg][1] + POPULATION:
                return f"leg {leg} made {leg_count} measurements"
            leg, leg_count, run_min = leg + 1, 0, None
            if leg >= len(LEGS):
                return "more change markers than leg changes"
            continue
        if event.sent:
            if event.ft != run_min or event.best != run_min:
                return f"adaptation at {event.index} does not send the best so far"
            continue
        if event.index != expected_index:
            return f"measurement numbered {event.index}, want {expected_index}"
        expected_index += 1
        env = LEGS[leg][0]
        if event.env != env:
            return f"measurement {event.index} under {event.env!r}, want {env!r}"
        if event.ft not in values[env]:
            return f"ft {event.ft!r} at {event.index} is no value of table {env!r}"
        run_min = event.ft if run_min is None else min(run_min, event.ft)
        if event.best != run_min:
            return f"best_ft {event.best!r} at {event.index} is not the running minimum"
        leg_count += 1
    if leg != len(LEGS) - 1:
        return f"{leg} change markers, want {len(LEGS) - 1}"
    if leg_count >= LEGS[leg][1] + POPULATION:
        return f"leg {leg} made {leg_count} measurements"
    return None


def final_bests(traces: dict[tuple[str, int], list[Event]]) -> dict[tuple[str, int], float]:
    """Minimum ft over each trace's measurements since its last change marker."""
    out = {}
    for key, events in traces.items():
        last_change = max(i for i, e in enumerate(events) if e.change)
        out[key] = min(e.ft for e in events[last_change:] if e.is_measurement)
    return out


# -- summary tables ---------------------------------------------------------------


def _finals(finals: dict, label: str, repetitions: int) -> np.ndarray:
    return np.asarray([finals[(label, rep)] for rep in range(repetitions)])


def check_summary(path: Path, finals: dict, repetitions: int) -> list[str]:
    """Median and IQR per planner match numpy's on the final bests."""
    rows = _rows(path)
    if [r["planner"] for r in rows] != list(PLANNERS):
        return [f"summary: planners {[r['planner'] for r in rows]}"]
    problems = []
    for row in rows:
        q25, q50, q75 = np.percentile(_finals(finals, row["planner"], repetitions),
                                      [25, 50, 75])
        if not (_close(float(row["median"]), q50) and _close(float(row["iqr"]), q75 - q25)):
            problems.append(f"summary: {row['planner']} median/iqr {row['median']}/"
                            f"{row['iqr']}, want {q50!r}/{q75 - q25!r}")
        if row["direction"] != "minimize":
            problems.append(f"summary: {row['planner']} direction {row['direction']!r}")
    return problems


def rank_sum_p(xs: np.ndarray, ys: np.ndarray) -> float:
    """Two-sided Wilcoxon rank-sum p-value from scipy: the exact permutation
    distribution up to 10 + 10 samples, the normal approximation without
    continuity correction above."""
    from scipy import stats

    if np.all(np.concatenate([xs, ys]) == xs[0]):
        return 1.0
    if len(xs) + len(ys) <= 20:
        method = stats.PermutationMethod(n_resamples=np.inf)
        return float(stats.mannwhitneyu(xs, ys, alternative="two-sided", method=method).pvalue)
    return float(stats.mannwhitneyu(xs, ys, alternative="two-sided", method="asymptotic",
                                    use_continuity=False).pvalue)


def a12_count(xs: np.ndarray, ys: np.ndarray) -> float:
    """Share of (x, y) pairs where x is smaller, ties counting half."""
    less = (xs[:, None] < ys[None, :]).sum()
    ties = (xs[:, None] == ys[None, :]).sum()
    return float((less + 0.5 * ties) / (len(xs) * len(ys)))


def check_pairwise(path: Path, finals: dict, repetitions: int) -> list[str]:
    """p-values match scipy's rank-sum test; A12 matches a count of pairs."""
    rows = _rows(path)
    if [r["baseline"] for r in rows] != list(PLANNERS[1:]):
        return [f"pairwise: baselines {[r['baseline'] for r in rows]}"]
    lidos = _finals(finals, PLANNERS[0], repetitions)
    problems = []
    for row in rows:
        other = _finals(finals, row["baseline"], repetitions)
        p = rank_sum_p(lidos, other)
        if not math.isclose(float(row["p_value"]), p, rel_tol=0.0, abs_tol=P_TOL):
            problems.append(f"pairwise: {row['baseline']} p {row['p_value']}, want {p!r}")
        effect = a12_count(lidos, other)
        if not _close(float(row["a12"]), effect):
            problems.append(f"pairwise: {row['baseline']} a12 {row['a12']}, want {effect!r}")
    return problems


def check_a12_floor(lidos: np.ndarray, restart: np.ndarray, floor: float) -> list[str]:
    """lidos beats the restart variant of its own search by at least `floor`."""
    effect = a12_count(lidos, restart)
    if effect < floor:
        return [f"a12-floor: A12 of lidos over lidos_sta over {len(lidos)} repetitions "
                f"is {effect:.4f}, below {floor}"]
    return []


def _post_change(events: list[Event]) -> list[Event]:
    first = next(i for i, e in enumerate(events) if e.change)
    rest = events[first + 1:]
    end = next((i for i, e in enumerate(rest) if e.change), len(rest))
    return [e for e in rest[:end] if e.is_measurement]


def speedup_ratio(base: list[Event], lidos: list[Event]) -> float:
    """Measurements the baseline needs after the change to first reach its own
    post-change best, over those lidos needs to match that value."""
    base, lidos = _post_change(base), _post_change(lidos)
    best = min(e.ft for e in base)
    t_base = 1 + next(i for i, e in enumerate(base) if e.ft == best)
    t_lidos = next((1 + i for i, e in enumerate(lidos) if e.ft <= best), None)
    return math.inf if t_lidos is None else t_base / t_lidos


def check_speedups(path: Path, traces: dict, repetitions: int) -> list[str]:
    """Per-repetition speedups match a recomputation from the traces."""
    rows = _rows(path)
    want = [(b, rep) for b in PLANNERS[1:] for rep in range(repetitions)]
    if [(r["baseline"], int(r["rep"])) for r in rows] != want:
        return ["speedups: rows are not one per baseline and repetition"]
    problems = []
    for row, (baseline, rep) in zip(rows, want):
        value = speedup_ratio(traces[(baseline, rep)], traces[(PLANNERS[0], rep)])
        if not _close(float(row["speedup"]), value):
            problems.append(f"speedups: {baseline} rep {rep} is {row['speedup']}, "
                            f"want {value!r}")
    return problems


def expected_trajectories(traces: dict, repetitions: int) -> list[tuple]:
    """(planner, m, median, iqr, flag, legs) per planner and stride multiple m:
    median and IQR over repetitions of the best value at the last measurement
    at or before m, the change flag on the first multiple at or past each leg
    boundary, and the leg each repetition is in at m."""
    total = sum(budget for _, budget in LEGS)
    boundaries = np.cumsum([budget for _, budget in LEGS])[:-1]
    flagged = {min(total, math.ceil(b / STRIDE) * STRIDE) for b in boundaries}
    out = []
    for label in PLANNERS:
        series = []
        for rep in range(repetitions):
            indices, bests, legs, leg = [], [], [], 0
            for event in traces[(label, rep)]:
                leg += event.change
                if event.is_measurement:
                    indices.append(event.index)
                    bests.append(event.best)
                    legs.append(leg)
            series.append((indices, bests, legs))
        for m in range(STRIDE, total + 1, STRIDE):
            at_m = [(bests[pos], legs[pos])
                    for indices, bests, legs in series
                    if (pos := bisect.bisect_right(indices, m) - 1) >= 0]
            if not at_m:
                continue
            q25, q50, q75 = np.percentile([v for v, _ in at_m], [25, 50, 75])
            out.append((label, m, q50, q75 - q25, int(m in flagged),
                        tuple(leg for _, leg in at_m)))
    return out


def check_trajectories(path: Path, traces: dict, repetitions: int) -> list[str]:
    """Rows match a recomputation from the traces, and the median best never
    rises between two rows at which every repetition is in the same leg."""
    rows = _rows(path)
    want = expected_trajectories(traces, repetitions)
    if [(r["planner"], int(r["measurement_index"])) for r in rows] != \
            [(w[0], w[1]) for w in want]:
        return ["trajectories: rows are not one per planner and stride multiple"]
    problems = []
    for row, (label, m, median, iqr, flag, _) in zip(rows, want):
        if not (_close(float(row["median_best"]), median)
                and _close(float(row["iqr_best"]), iqr)
                and int(row["env_change"]) == flag):
            problems.append(f"trajectories: {label} at {m} is {row['median_best']}/"
                            f"{row['iqr_best']}/{row['env_change']}, "
                            f"want {median!r}/{iqr!r}/{flag}")
    for (row, w), (nxt, w_next) in zip(zip(rows, want), zip(rows[1:], want[1:])):
        same_leg = w[0] == w_next[0] and w[5] == w_next[5]
        if same_leg and float(nxt["median_best"]) > float(row["median_best"]):
            problems.append(f"trajectories: {w[0]} median rises within a leg at {w_next[1]}")
    return problems


def check_rewrites(before: dict[str, str], after: dict[str, str]) -> list[str]:
    """`lidos summarize` rewrites the run's files byte for byte."""
    changed = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
    return [f"rewrites: {name} differs from the run's" for name in changed]


# -- one round -------------------------------------------------------------------


def check_outputs(out_dir: Path, tables: dict[str, dict],
                  repetitions: int) -> tuple[list[str], dict[tuple[str, int], float]]:
    """Every output check on one `lidos run` output directory; returns the
    problems and the final best of each (planner, rep)."""
    try:
        traces = read_traces(out_dir / "traces.csv")
        problems = check_traces(traces, tables, repetitions)
        if problems:
            return problems, {}
        finals = final_bests(traces)
        problems += check_summary(out_dir / "summary.csv", finals, repetitions)
        problems += check_pairwise(out_dir / "pairwise.csv", finals, repetitions)
        problems += check_speedups(out_dir / "speedups.csv", traces, repetitions)
        problems += check_trajectories(out_dir / "trajectories.csv", traces, repetitions)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"outputs: unreadable: {exc!r}"], {}
    return problems, finals


class A12Pool:
    """Final bests of lidos and lidos_sta pooled over a run's rounds, for the
    A12 floor: one round of ten repetitions is too few for it."""

    def __init__(self) -> None:
        self.lidos: list[float] = []
        self.restart: list[float] = []

    def add(self, finals: dict[tuple[str, int], float], repetitions: int) -> None:
        if finals:
            self.lidos += [finals[("lidos", rep)] for rep in range(repetitions)]
            self.restart += [finals[("lidos_sta", rep)] for rep in range(repetitions)]

    def problems(self, floor: float | None) -> list[str]:
        if not self.lidos:
            return []
        lidos, restart = np.asarray(self.lidos), np.asarray(self.restart)
        print(f"# A12 of lidos over lidos_sta, {len(lidos)} repetitions pooled: "
              f"{a12_count(lidos, restart):.4f}")
        return [] if floor is None else check_a12_floor(lidos, restart, floor)

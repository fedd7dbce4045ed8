"""Lifelong generational planner: cache-aware measuring, adaptation events,
environment-change handling, and run traces."""

from __future__ import annotations

import math
import random

import numpy as np

# hashlib loads OpenSSL's libcrypto, several MB of every process; CPython's
# built-in SHA-256 gives the same digests without it.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .mmo import ScoredPlan, assign_auxiliary, environmental_selection, transform
from .space import ConfigSpace, Plan
from .twin import CyberTwin, Environment

# A leg gives up after this many consecutive generations without a genuine
# measurement: finite datasets plus bounded-reach operators can dead-end
# before either the budget or full coverage is hit.
STALL_GENERATIONS = 25

# The one GA setting every planner kind shares: members per population, and
# the chance that a pair of children crosses over and that a gene mutates.
# The population size must be even and at least 2.
POPULATION_SIZE = 20
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.1


def derive_seed(*parts) -> int:
    """Stable cross-process seed from arbitrary labelled parts."""
    digest = _sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# One row per trace event, holding what the run decided. `env` indexes
# `RunTrace.env_ids`; `ft` is NaN on environment-change rows, which carry no
# value.
ROW_DTYPE = np.dtype([
    ("env", np.int32),
    ("ft", np.float64),
    ("adaptation_sent", np.bool_),
    ("env_change", np.bool_),
])
# One row of `traces.csv`: the decided columns and the two that
# `derived_columns` derives from them.
TRACE_DTYPE = np.dtype([
    ("measurement_index", np.int64),
    ("env", np.int32),
    ("ft", np.float64),
    ("best_ft", np.float64),
    ("adaptation_sent", np.bool_),
    ("env_change", np.bool_),
])
TRACE_HEADER = ("planner", "rep") + TRACE_DTYPE.names


def running_count(flags: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """Per row, how many rows up to and including it are flagged, counted
    from the last row at or before it that `opens` marks."""
    total = np.cumsum(flags)
    return total - (total - flags)[opens][np.cumsum(opens) - 1]


def derived_columns(rows: np.ndarray, starts: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The `measurement_index` and `best_ft` columns of `rows`, which hold
    the decided columns of one trace, or of several one after another where
    `starts` flags the first row of each.

    A row's `measurement_index` is the count of its trace's measurement rows
    up to it. Its `best_ft` is the least `ft` of its leg's measurement rows
    so far, +inf before the first, so a planner's adaptation row carries it
    as its own `ft`; a change row, which opens a leg, holds NaN. As the
    planner keeps the first plan that reaches a new least, a later equal
    `ft`, such as -0.0 after 0.0, does not replace it."""
    change = rows["env_change"]
    measured = ~(rows["adaptation_sent"] | change)
    if starts is None:
        opens = change.copy()
        opens[:1] = True
        index = np.cumsum(measured)
    else:
        opens = starts | change
        index = running_count(measured, starts)
    ft = np.where(measured, rows["ft"], np.inf)
    least = ft.copy()
    bounds = np.flatnonzero(opens).tolist() + [len(rows)]
    for start, end in zip(bounds, bounds[1:]):
        np.minimum.accumulate(least[start:end], out=least[start:end])
    # Each row's best is the ft of the last row that lowered its leg's
    # least, or of the leg's opening row, +inf there unless it measured.
    lowered = opens.copy()
    lowered[1:] |= ft[1:] < least[:-1]
    best = ft[np.flatnonzero(lowered)[np.cumsum(lowered) - 1]]
    best[change] = np.nan
    return index, best


class RunTrace:
    """Ordered event log of one repetition: genuine measurements, adaptation
    emissions, and environment changes.

    `rows` is a structured array of `ROW_DTYPE` rows, the columns the run
    decided; `events` derives from it the `TRACE_DTYPE` rows of
    `traces.csv`, anew on every read. Recording appends plain tuples; they
    join `rows` the first time it is read.
    """

    def __init__(self, rows: np.ndarray | None = None, env_ids=()) -> None:
        self._rows = rows if rows is not None else np.empty(0, ROW_DTYPE)
        self.env_ids: list[str] = list(env_ids)
        self._codes = {env_id: code for code, env_id in enumerate(self.env_ids)}
        self._pending: list[tuple] = []

    def record(self, env_id: str, ft: float = math.nan,
               adaptation_sent: bool = False, env_change: bool = False) -> None:
        code = self._codes.get(env_id)
        if code is None:
            code = self._codes[env_id] = len(self.env_ids)
            self.env_ids.append(env_id)
        self._pending.append((code, ft, adaptation_sent, env_change))

    @property
    def rows(self) -> np.ndarray:
        if self._pending:
            self._rows = np.concatenate(
                (self._rows, np.array(self._pending, dtype=ROW_DTYPE)))
            self._pending = []
        return self._rows

    @property
    def events(self) -> np.ndarray:
        """The trace's `traces.csv` rows, derived anew and not kept."""
        rows = self.rows
        events = np.empty(len(rows), TRACE_DTYPE)
        for name in ROW_DTYPE.names:
            events[name] = rows[name]
        events["measurement_index"], events["best_ft"] = derived_columns(rows)
        return events

    def measurement_mask(self) -> np.ndarray:
        rows = self.rows
        return ~(rows["adaptation_sent"] | rows["env_change"])

    def measurements_after_change(self, marker: int = 1) -> np.ndarray:
        """Measurement rows between the marker-th environment change and the
        next one (or the end of the trace)."""
        if marker < 1:
            raise ValueError("change marker is 1-based")
        rows = self.rows
        changes = np.flatnonzero(rows["env_change"])
        if len(changes) < marker:
            raise ValueError(
                f"trace holds only {len(changes)} change marker(s), wanted {marker}")
        end = changes[marker] if len(changes) > marker else len(rows)
        segment = rows[changes[marker - 1] + 1:end]
        return segment[~segment["adaptation_sent"]]

    def final_best(self) -> float:
        """The best value of the last row that carries one, which change rows
        do not: the least `ft` of the measurement rows of its leg, the first
        of equal ones, as the planner keeps it."""
        change = self.rows["env_change"]
        valued = np.flatnonzero(~change)
        if not len(valued):
            raise ValueError("trace holds no measurements")
        opened = np.flatnonzero(change[:valued[-1]])
        leg = self.rows[opened[-1] + 1 if len(opened) else 0:]
        ft = leg["ft"][~(leg["adaptation_sent"] | leg["env_change"])]
        return float(ft[np.argmin(ft)])


def binary_tournament(keys: list, rng: random.Random) -> int:
    """Pick two distinct members at random and return the index of the one
    with the lower key, the first pick on ties.

    The draws are exactly those of `rng.sample(range(len(keys)), 2)`. Up to
    21 members, where `Random.sample` takes its pool path, they are made
    inline, the way `Random._randbelow` makes them: a draw below m takes
    `m.bit_length()` bits from `getrandbits` and repeats until it is below m,
    and the second draw is over the n - 1 members left, with the last member
    moved into the first pick's slot. Beyond 21 members `rng.sample` draws."""
    n = len(keys)
    if n < 2:
        raise ValueError("a tournament needs at least two members")
    if n > 21:
        i, j = rng.sample(range(n), 2)
    else:
        getrandbits = rng.getrandbits
        bits = n.bit_length()
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        m = n - 1
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        if j == i:
            j = m
    return i if keys[i] <= keys[j] else j


# Each planner kind as a row of its two factors. Selection ranks members on
# the bi-objective (g1, g2) ("mmo"), whose offspring pools also collect
# distinct plans, or on the target value alone ("soga"). An environment
# change keeps the population and re-measures it ("keep"), or restarts it
# from random plans ("restart").
KINDS = {
    "lidos": ("mmo", "keep"),
    "lidos_sta": ("mmo", "restart"),
    "pseudo_dynamic": ("soga", "keep"),
    "stationary": ("soga", "restart"),
}


def planner_labels(planners: tuple[str, ...]) -> list[tuple[str, str]]:
    """(label, kind) pairs; repeated kinds get positional suffixes."""
    out: list[tuple[str, str]] = []
    counts: dict[str, int] = {}
    for kind in planners:
        counts[kind] = counts.get(kind, 0) + 1
        label = kind if counts[kind] == 1 else f"{kind}@{counts[kind]}"
        out.append((label, kind))
    return out


class Planner:
    """The generational loop over a measurement twin, for every planner kind.

    The kind's row of `KINDS` fixes mating, replacement and change handling;
    everything else (cache-aware measurement accounting, best-so-far
    tracking, adaptation triggering, leg execution, restarts) is common to
    all kinds.
    """

    def __init__(self, kind: str, space: ConfigSpace, twin: CyberTwin, seed: int,
                 k: int = 150):
        """`seed` seeds the planner's generator and `k` is its adaptation
        interval, in genuine measurements."""
        try:
            self.selection, self.change = KINDS[kind]
        except KeyError:
            raise ValueError(
                f"unknown planner kind {kind!r}; expected one of {tuple(KINDS)}"
            ) from None
        if k < 1:
            raise ValueError("adaptation interval k must be positive")
        self.kind = kind
        self.space = space
        self.twin = twin
        self.k = k
        self.base_seed = seed
        self.rng = random.Random(seed)
        self.ends = tuple((o.domain[0], o.domain[-1]) for o in space.options)
        self.population: list[ScoredPlan] = []
        self.s_best: ScoredPlan | None = None
        self.t = 0
        self.epoch = 0
        self.epoch_measurements = 0
        self._last_sent_ft: float | None = None
        self.trace = RunTrace()

    # -- planner interface -------------------------------------------------

    def init_run(self) -> None:
        """Measure a random population under the twin's current environment."""
        if self.twin.current is None:
            raise ValueError("twin has no current environment")
        self.population = [ScoredPlan(p, self._measure(p)) for p in self._spawn_plans()]
        self._score_population()

    def step_generation(self) -> None:
        """One generation: mate, vary, repair, measure (cache-aware), replace,
        and possibly emit an adaptation.

        Each pair of children makes its draws in this order, which every
        trace byte rests on: two binary tournaments; the crossover gate, and
        past it one swap draw per gene; then per gene of the first child, and
        then of the second, the mutation draw and, where it hits, a fair coin
        between the low and the high end of the gene's domain."""
        n, crossover_rate, mutation_rate = POPULATION_SIZE, CROSSOVER_RATE, MUTATION_RATE
        population, rng, ends = self.population, self.rng, self.ends
        repair, measure, draw = self.twin.repair, self._measure, rng.random
        genes = range(len(ends))
        # Bi-objective pools collect distinct plans: duplicates do not count
        # toward the pool size, so populations stay plan-diverse whenever the
        # dataset allows.
        distinct = self.selection == "mmo"
        # The population stays fixed until `_replace`, so its keys do too.
        keys = self._tournament_keys()
        offspring: list[ScoredPlan] = []
        pool_plans: set[Plan] = set()
        # Degenerate operators or exhausted reach can make distinct offspring
        # unobtainable; cap the attempts so the generation always terminates.
        attempts_left = 50 * n
        while len(offspring) < n and attempts_left > 0:
            a = list(population[binary_tournament(keys, rng)].plan)
            b = list(population[binary_tournament(keys, rng)].plan)
            if draw() < crossover_rate:
                for i in genes:
                    if draw() < 0.5:
                        a[i], b[i] = b[i], a[i]
            for child in (a, b):
                for i in genes:
                    if draw() < mutation_rate:
                        child[i] = ends[i][0] if draw() < 0.5 else ends[i][1]
            for child in (repair(tuple(a)), repair(tuple(b))):
                attempts_left -= 1
                if len(offspring) >= n:
                    break
                if distinct and child in pool_plans:
                    continue
                pool_plans.add(child)
                offspring.append(ScoredPlan(child, measure(child)))
        self._replace(offspring)
        self._maybe_send_adaptation()

    def on_environment_change(self, env: Environment | str) -> None:
        """Begin the new epoch, then keep the population, re-measured and
        re-scored under the new environment, or restart it from random plans
        on a seed derived from the epoch."""
        self._begin_epoch(env)
        if self.change == "restart":
            self.restart(derive_seed(self.base_seed, "restart", self.epoch))
        else:
            self._remeasure_population()
            self._score_population()

    def run_scenario_leg(self, measurement_budget: int | None = None) -> RunTrace:
        """Run generations until the budget of genuine measurements since the
        epoch began is spent, the space is covered, or progress stalls.

        The generation in progress always completes, so a leg may overshoot
        its budget by at most one generation's worth of measurements.
        """
        stalled = 0
        while True:
            if self.twin.coverage() >= 1.0:
                break
            if measurement_budget is not None and self.epoch_measurements >= measurement_budget:
                break
            if stalled >= STALL_GENERATIONS:
                break
            before = self.epoch_measurements
            self.step_generation()
            stalled = stalled + 1 if self.epoch_measurements == before else 0
        return self.trace

    def restart(self, seed: int) -> None:
        """Re-seed, then re-randomize the population under the current
        environment. Callers begin the epoch first, which resets the best
        plan, the emission gate, and the interval counter."""
        self.rng = random.Random(seed)
        self.init_run()

    # -- shared internals ----------------------------------------------------

    def _measure(self, plan: Plan) -> float:
        """Measure through the twin; genuine measurements advance the interval
        counter, update the best plan, and append a trace event."""
        twin = self.twin
        before = twin.counter
        ft = twin.measure(plan)
        if twin.counter == before:
            return ft
        self.t += 1
        self.epoch_measurements += 1
        if self.s_best is None or ft < self.s_best.ft:
            self.s_best = ScoredPlan(plan=plan, ft=ft)
        self.trace.record(twin.current.id, ft)
        return ft

    def _spawn_plans(self) -> list[Plan]:
        """Random measured plans, distinct whenever the dataset allows it."""
        n = POPULATION_SIZE
        table = self.twin.current_table()
        target = min(n, len(table))
        chosen: list[Plan] = []
        seen: set[Plan] = set()
        attempts = 0
        while len(chosen) < target:
            plan = self.twin.repair(self.space.random_plan(self.rng))
            attempts += 1
            if plan in seen:
                if attempts > 100 * (n + 1):
                    for fallback in sorted(set(table.rows) - seen):
                        seen.add(fallback)
                        chosen.append(fallback)
                        if len(chosen) == target:
                            break
                continue
            seen.add(plan)
            chosen.append(plan)
        while len(chosen) < n:
            chosen.append(chosen[self.rng.randrange(len(chosen))])
        return chosen

    def _begin_epoch(self, env: Environment | str) -> None:
        self.twin.set_environment(env)
        self.epoch += 1
        self.t = 0
        self.epoch_measurements = 0
        self.s_best = None
        self._last_sent_ft = None
        self.trace.record(self.twin.current.id, env_change=True)

    def _remeasure_population(self) -> None:
        """Measure the population under the new environment. A plan its table
        lacks is repaired first, as every plan entering the search is; members
        that land on one plan stay separate members."""
        rows = self.twin.current_table().rows
        for member in self.population:
            if member.plan not in rows:
                member.plan = self.twin.repair(member.plan)
            member.ft = self._measure(member.plan)

    def _maybe_send_adaptation(self) -> None:
        """Emit the best plan once the interval is full and it improves on the
        previously emitted plan; emission resets the interval counter."""
        if self.t < self.k or self.s_best is None:
            return
        if self._last_sent_ft is not None and self.s_best.ft >= self._last_sent_ft:
            return
        self.trace.record(self.twin.current.id, self.s_best.ft, adaptation_sent=True)
        self._last_sent_ft = self.s_best.ft
        self.t = 0

    # -- the two selection rules --------------------------------------------

    def _score_population(self) -> None:
        # Bi-objective: selecting all members keeps every one, but sets the
        # ranks and crowding the next tournament reads and reorders the
        # population by front, which the tournament's draws see. The target
        # value needs no scoring.
        if self.selection == "mmo":
            self.population = self._select(self.population, len(self.population))

    def _tournament_keys(self) -> list:
        """Each member's tournament key, in population order; lower wins."""
        if self.selection == "mmo":
            return [(m.rank, -m.crowding) for m in self.population]
        return [m.ft for m in self.population]

    def _replace(self, offspring: list[ScoredPlan]) -> None:
        if self.selection == "mmo":
            # Offspring re-creating a parent plan merge into the parent copy,
            # so the scored union never builds up clones of surviving plans.
            parent_plans = {m.plan for m in self.population}
            union = self.population + [o for o in offspring if o.plan not in parent_plans]
            self.population = self._select(union, POPULATION_SIZE)
            return
        # Generational replacement with 1-elitism.
        elite = min(self.population, key=lambda m: m.ft)
        if min(o.ft for o in offspring) > elite.ft:
            worst = max(range(len(offspring)), key=lambda i: offspring[i].ft)
            offspring[worst] = ScoredPlan(plan=elite.plan, ft=elite.ft)
        self.population = offspring

    def _select(self, pool: list[ScoredPlan], n: int) -> list[ScoredPlan]:
        """Score every member on (g1, g2) afresh and keep the best n."""
        assign_auxiliary(pool, self.space)
        for member in pool:
            transform(member)
        return environmental_selection(pool, n)


# bench/tracing.py, their only user, patches planners under these names; they
# go with the benchmark change of ROADMAP item 10.
BasePlanner = MmoPlanner = Planner

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


# One row per trace event. `env` indexes `RunTrace.env_ids`; `ft` and
# `best_ft` are NaN on environment-change rows, which carry no value.
TRACE_DTYPE = np.dtype([
    ("measurement_index", np.int64),
    ("env", np.int32),
    ("ft", np.float64),
    ("best_ft", np.float64),
    ("adaptation_sent", np.bool_),
    ("env_change", np.bool_),
])


class RunTrace:
    """Ordered event log of one repetition: genuine measurements (index
    strictly increasing), adaptation emissions, and environment changes.

    `events` is a structured array of `TRACE_DTYPE` rows: exactly the
    columns of `traces.csv`. Recording appends plain tuples; they join
    `events` the first time it is read.
    """

    def __init__(self, events: np.ndarray | None = None, env_ids=()) -> None:
        self._events = events if events is not None else np.empty(0, TRACE_DTYPE)
        self.env_ids: list[str] = list(env_ids)
        self._codes = {env_id: code for code, env_id in enumerate(self.env_ids)}
        self._pending: list[tuple] = []

    def record(self, measurement_index: int, env_id: str,
               ft: float = math.nan, best_ft: float = math.nan,
               adaptation_sent: bool = False, env_change: bool = False) -> None:
        code = self._codes.get(env_id)
        if code is None:
            code = self._codes[env_id] = len(self.env_ids)
            self.env_ids.append(env_id)
        self._pending.append((measurement_index, code, ft, best_ft,
                              adaptation_sent, env_change))

    @property
    def events(self) -> np.ndarray:
        if self._pending:
            self._events = np.concatenate(
                (self._events, np.array(self._pending, dtype=TRACE_DTYPE)))
            self._pending = []
        return self._events

    def measurement_mask(self) -> np.ndarray:
        events = self.events
        return ~(events["adaptation_sent"] | events["env_change"])

    def measurements_after_change(self, marker: int = 1) -> np.ndarray:
        """Measurement rows between the marker-th environment change and the
        next one (or the end of the trace)."""
        if marker < 1:
            raise ValueError("change marker is 1-based")
        events = self.events
        changes = np.flatnonzero(events["env_change"])
        if len(changes) < marker:
            raise ValueError(
                f"trace holds only {len(changes)} change marker(s), wanted {marker}")
        end = changes[marker] if len(changes) > marker else len(events)
        segment = events[changes[marker - 1] + 1:end]
        return segment[~segment["adaptation_sent"]]

    def final_best(self) -> float:
        """The last recorded best value: change rows carry none."""
        valued = np.flatnonzero(~self.events["env_change"])
        if not len(valued):
            raise ValueError("trace holds no measurements")
        return float(self.events["best_ft"][valued[-1]])


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


class BasePlanner:
    """Shared generational loop over a measurement twin.

    Subclasses fix mating and replacement; everything else (cache-aware
    measurement accounting, best-so-far tracking, adaptation triggering,
    leg execution, restarts) is common to all planner kinds.
    """

    kind = "base"
    # When set, offspring pools collect distinct plans (duplicates do not count
    # toward the pool size) and replacement unions deduplicate against the
    # parents, so populations stay plan-diverse whenever the dataset allows.
    distinct_offspring = False

    def __init__(self, space: ConfigSpace, twin: CyberTwin, seed: int, k: int = 150):
        """`seed` seeds the planner's generator and `k` is its adaptation
        interval, in genuine measurements."""
        if k < 1:
            raise ValueError("adaptation interval k must be positive")
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
                if self.distinct_offspring and child in pool_plans:
                    continue
                pool_plans.add(child)
                offspring.append(ScoredPlan(child, measure(child)))
        self._replace(offspring)
        self._maybe_send_adaptation()

    def on_environment_change(self, env: Environment | str) -> None:
        raise NotImplementedError

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
        self.trace.record(twin.counter, twin.current.id, ft, self.s_best.ft)
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
        self.trace.record(self.twin.counter, self.twin.current.id, env_change=True)

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
        self.trace.record(self.twin.counter, self.twin.current.id,
                          self.s_best.ft, self.s_best.ft, adaptation_sent=True)
        self._last_sent_ft = self.s_best.ft
        self.t = 0

    # -- subclass hooks ------------------------------------------------------

    def _score_population(self) -> None:
        pass

    def _tournament_keys(self) -> list:
        """Each member's tournament key, in population order; lower wins."""
        raise NotImplementedError

    def _replace(self, offspring: list[ScoredPlan]) -> None:
        raise NotImplementedError


class MmoPlanner(BasePlanner):
    """The lifelong dynamic planner: bi-objective selection keeps diverse local
    optima, and an environment change re-measures (rather than discards) the
    population."""

    kind = "lidos"
    distinct_offspring = True

    def _score_population(self) -> None:
        # Selecting all members keeps every one, but sets the ranks and
        # crowding the next tournament reads and reorders the population by
        # front, which the tournament's draws see.
        self.population = self._select(self.population, len(self.population))

    def _tournament_keys(self) -> list:
        return [(m.rank, -m.crowding) for m in self.population]

    def _replace(self, offspring: list[ScoredPlan]) -> None:
        # Offspring re-creating a parent plan merge into the parent copy, so
        # the scored union never builds up clones of surviving plans.
        parent_plans = {m.plan for m in self.population}
        union = self.population + [o for o in offspring if o.plan not in parent_plans]
        self.population = self._select(union, POPULATION_SIZE)

    def _select(self, pool: list[ScoredPlan], n: int) -> list[ScoredPlan]:
        """Score every member on (g1, g2) afresh and keep the best n."""
        assign_auxiliary(pool, self.space)
        for member in pool:
            transform(member)
        return environmental_selection(pool, n)

    def on_environment_change(self, env: Environment | str) -> None:
        self._begin_epoch(env)
        self._remeasure_population()
        self._score_population()

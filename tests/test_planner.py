from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from lidos import planner as planner_module
from lidos.baselines import PLANNER_KINDS, make_planner
from lidos.mmo import ScoredPlan
from lidos.planner import ROW_DTYPE, RunTrace, binary_tournament, derived_columns
from lidos.twin import synth_tables

from conftest import assert_accounting, make_space, make_table, make_twin


def grid_rows(domains, value_fn):
    return {p: value_fn(p) for p in itertools.product(*domains)}


def small_setup(n_values=5, seed=0, direction="minimize", value_fn=None):
    """A rugged two-option space with every plan measured."""
    domains = (tuple(range(n_values)), tuple(range(n_values)))
    space = make_space(*domains)
    rng = random.Random(987)
    value_fn = value_fn or (lambda p: rng.uniform(0, 100))
    rows = grid_rows(domains, value_fn)
    table = make_table(space, rows, env_id="e", direction=direction)
    twin = make_twin(space, table, current="e")
    return space, twin, rows


class TestParams:
    def test_interval_positive(self):
        space, twin, _ = small_setup()
        with pytest.raises(ValueError, match="k must be positive"):
            make_planner("lidos", space, twin, seed=0, k=0)


def generations_of_two(ga, domains, a, b, rates: dict, generations: int,
                       seed: int = 0) -> list:
    """Children of a single-objective planner of two members, at the rates
    `rates` set through `ga`, whose population is reset to the plans a and b
    before each generation, on a flat table of every plan, so that either
    parent wins a tournament: each pair of children, in order."""
    space = make_space(*domains)
    twin = make_twin(space, make_table(space, grid_rows(domains, lambda p: 1.0)),
                     current="e")
    ga(population=2, **rates)
    planner = make_planner("pseudo_dynamic", space, twin, seed, k=10_000)
    handed = recording_offspring(planner)
    for _ in range(generations):
        planner.population = [ScoredPlan(p, planner._measure(p)) for p in (a, b)]
        planner.step_generation()
    return [tuple(plan for plan, _ in children) for children in handed]


class TestOperators:
    """The operators' properties, seen through whole generations."""

    def test_crossover_disabled_passthrough(self, ga):
        a, b = (0, 0, 0), (1, 1, 1)
        pairs = generations_of_two(ga, ((0, 1),) * 3, a, b,
                                   dict(crossover=0.0, mutation=0.0), 50)
        assert {child for pair in pairs for child in pair} == {a, b}

    def test_crossover_swaps_genes_only(self, ga):
        # A pair of children holds, gene by gene, its parents' two values:
        # a 0 and a 1 from a and b, or twice the value of a parent drawn twice.
        a, b = (0, 0, 0, 0), (1, 1, 1, 1)
        pairs = generations_of_two(ga, ((0, 1),) * 4, a, b,
                                   dict(crossover=1.0, mutation=0.0), 50, seed=1)
        for c1, c2 in pairs:
            assert len({x + y for x, y in zip(c1, c2)}) == 1, (c1, c2)
        assert {child for pair in pairs for child in pair} - {a, b}, "no gene was swapped"

    def test_mutation_disabled_identity(self, ga):
        # Crossover only moves values between the two children, so at every
        # gene a pair holds exactly its two parents' values; no domain end
        # that no parent holds ever appears.
        a, b = (1, 5), (2, 3)
        pairs = generations_of_two(ga, (tuple(range(3)), tuple(range(10))), a, b,
                                   dict(crossover=1.0, mutation=0.0), 50, seed=2)
        for c1, c2 in pairs:
            assert any(all(sorted((x, y)) == sorted((p, q)) for x, y, p, q in zip(c1, c2, *parents))
                       for parents in ((a, a), (b, b), (a, b))), (c1, c2)

    def test_mutation_hits_bounds_only(self, ga):
        pairs = generations_of_two(ga, (tuple(range(5)),), (2,), (3,),
                                   dict(crossover=0.0, mutation=1.0), 100, seed=3)
        assert {child for pair in pairs for child in pair} == {(0,), (4,)}

    def test_planner_ends_are_domain_ends(self):
        space = make_space((0, 1, 2), (3,), (-4, 0, 7, 9))
        twin = make_twin(space, make_table(space, {(0, 3, 0): 1.0}))
        planner = make_planner("lidos", space, twin, seed=0)
        assert planner.ends == ((0, 2), (3, 3), (-4, 9))

    def test_tournament_draws_as_random_sample(self):
        """The tournament's two picks, and the generator state after them,
        equal those of `Random.sample(population, 2)`: its pool path up to 21
        members and its set path beyond."""
        picks = ((lambda m: 0, lambda a, b: a), (lambda m: m, min), (lambda m: -m, max))
        for n in range(2, 61):
            population = list(range(n))
            for seed in range(40):
                for key, pick in picks:
                    keys = [key(m) for m in population]
                    expected, actual = random.Random(seed), random.Random(seed)
                    for _ in range(5):
                        a, b = expected.sample(population, 2)
                        assert binary_tournament(keys, actual) == pick(a, b)
                    assert actual.getstate() == expected.getstate(), (n, seed)

    def test_tournament_needs_two_members(self):
        for keys in ([], [0.5]):
            with pytest.raises(ValueError, match="at least two"):
                binary_tournament(keys, random.Random(0))


# -- reference generation --------------------------------------------------------
#
# One generation composed of three separate operators, each making its own
# draws: the reference that `step_generation`'s single loop is checked
# against. The loop must make the same draws in the same order, so every
# offspring, population, trace and generator state equals the reference's.


def reference_tournament(keys: list, rng: random.Random) -> int:
    a, b = rng.sample(range(len(keys)), 2)
    return a if keys[a] <= keys[b] else b


def reference_crossover(a, b, rate: float, rng: random.Random):
    draw = rng.random
    if draw() >= rate:
        return a, b
    ca, cb = list(a), list(b)
    for i in range(len(ca)):
        if draw() < 0.5:
            ca[i], cb[i] = cb[i], ca[i]
    return tuple(ca), tuple(cb)


def reference_mutation(plan, ends, rate: float, rng: random.Random):
    draw = rng.random
    values = list(plan)
    for i, (low, high) in enumerate(ends):
        if draw() < rate:
            values[i] = low if draw() < 0.5 else high
    return tuple(values)


def reference_generation(planner) -> list:
    """`step_generation` through the reference operators; returns the
    offspring handed to replacement, as (plan, ft) pairs."""
    n = planner_module.POPULATION_SIZE
    population, rng, twin = planner.population, planner.rng, planner.twin
    keys = planner._tournament_keys()
    offspring, pool_plans = [], set()
    attempts_left = 50 * n
    while len(offspring) < n and attempts_left > 0:
        p1 = population[reference_tournament(keys, rng)]
        p2 = population[reference_tournament(keys, rng)]
        c1, c2 = reference_crossover(p1.plan, p2.plan, planner_module.CROSSOVER_RATE, rng)
        c1 = reference_mutation(c1, planner.ends, planner_module.MUTATION_RATE, rng)
        c2 = reference_mutation(c2, planner.ends, planner_module.MUTATION_RATE, rng)
        for child in (twin.repair(c1), twin.repair(c2)):
            attempts_left -= 1
            if len(offspring) >= n:
                break
            if planner.selection == "mmo" and child in pool_plans:
                continue
            pool_plans.add(child)
            offspring.append(ScoredPlan(plan=child, ft=planner._measure(child)))
    handed = [(o.plan, o.ft) for o in offspring]
    planner._replace(offspring)
    planner._maybe_send_adaptation()
    return handed


def recording_offspring(planner) -> list:
    """Make `planner` record, per generation, the offspring its `_replace`
    receives, as (plan, ft) pairs; returns the list they go to."""
    handed = []
    replace = planner._replace

    def recorded(offspring):
        handed.append([(o.plan, o.ft) for o in offspring])
        replace(offspring)

    planner._replace = recorded
    return handed


def planner_state(planner) -> tuple:
    """Everything a generation may change, with every float compared by its
    bits: the population in order, the best plan, the interval counters, the
    trace and the generator."""
    members = [(m.plan, m.ft, m.fa, m.g1, m.g2, m.rank, m.crowding)
               for m in planner.population]
    best = planner.s_best and (planner.s_best.plan, planner.s_best.ft)
    return (repr(members), repr(best), planner.t, planner.epoch_measurements,
            planner._last_sent_ft, planner.twin.counter, planner.trace.events.tobytes(),
            planner.trace.env_ids, planner.rng.getstate())


ORACLE_DOMAINS = ((0, 1, 2, 3, 4), (-3, 0, 8), (0, 1), (2, 5, 6, 9))
DEFAULT_RATES = (planner_module.CROSSOVER_RATE, planner_module.MUTATION_RATE)
# Every even population size at the default rates, and each other pair of
# crossover and mutation rates from 0, 1 and the defaults at sizes on both
# sides of the tournament's switch from `Random.sample`'s pool path to its
# set path.
ORACLE_CASES = tuple(
    [(size, DEFAULT_RATES) for size in range(2, 61, 2)]
    + [(size, rates) for size in (2, 20, 22, 60)
       for rates in itertools.product((0.0, 1.0, DEFAULT_RATES[0]), (0.0, 1.0, DEFAULT_RATES[1]))
       if rates != DEFAULT_RATES])


def oracle_twin(space, keep: float):
    """Two environments over a seeded subset of the space's plans (all of
    them at `keep` 1.0), so that off-table children take a repair search."""
    rng = random.Random(5)
    plans = [p for p in itertools.product(*ORACLE_DOMAINS) if rng.random() < keep]
    tables = (make_table(space, {p: rng.uniform(0, 10) for p in plans}, env_id=env_id,
                         direction=direction)
              for env_id, direction in (("A", "minimize"), ("B", "maximize")))
    return make_twin(space, *tables, current="A")


class TestGenerationOracle:
    """`step_generation` against `reference_generation`: the same offspring,
    population, trace and generator state after every generation, for every
    planner kind, every even population size from 2 to 60 (from 22 on the
    tournament takes `Random.sample`'s set path), crossover and mutation
    rates of 0, 1 and the defaults, and 30 seeds, on a table of every plan
    and on one that sends off-table children to a repair search."""

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    @pytest.mark.parametrize("keep", (1.0, 0.4))
    def test_generations_match_reference(self, kind, keep, ga):
        space = make_space(*ORACLE_DOMAINS)
        for case, (size, (crossover, mutation)) in enumerate(ORACLE_CASES):
            ga(population=size, crossover=crossover, mutation=mutation)
            seed = case % 30
            loop, reference = (make_planner(kind, space, oracle_twin(space, keep), seed, k=7)
                               for _ in range(2))
            handed = recording_offspring(loop)
            for planner in (loop, reference):
                planner.init_run()
            for generation in range(4):
                if generation == 2:
                    for planner in (loop, reference):
                        planner.on_environment_change("B")
                expected = reference_generation(reference)
                loop.step_generation()
                where = (size, crossover, mutation, seed, generation)
                assert handed[-1] == expected, where
                assert planner_state(loop) == planner_state(reference), where


class TestInitRun:
    def test_counts_match_population(self):
        space, twin, _ = small_setup()
        planner = make_planner("lidos", space, twin, seed=1)
        planner.init_run()
        assert twin.counter == 20
        assert planner.t == 20
        assert len(planner.population) == 20
        assert len({m.plan for m in planner.population}) == 20

    def test_deterministic_population(self):
        space, twin, _ = small_setup()
        p1 = make_planner("lidos", space, twin, seed=9)
        p1.init_run()
        twin2 = make_twin(space, list(twin.tables.values())[0], current="e")
        p2 = make_planner("lidos", space, twin2, seed=9)
        p2.init_run()
        assert [m.plan for m in p1.population] == [m.plan for m in p2.population]

    def test_tiny_dataset_full_coverage(self, ga):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        ga(population=2)
        planner = make_planner("lidos", space, twin, seed=0)
        planner.init_run()
        assert twin.coverage() == 1.0

    def test_dataset_smaller_than_population(self, ga):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        ga(population=4)
        planner = make_planner("lidos", space, twin, seed=0)
        planner.init_run()
        assert len(planner.population) == 4
        assert twin.counter == 2  # only distinct plans cost measurements

    def test_requires_current_environment(self):
        space, twin, _ = small_setup()
        twin2 = make_twin(space, list(twin.tables.values())[0])
        planner = make_planner("lidos", space, twin2, seed=0)
        with pytest.raises(ValueError, match="current environment"):
            planner.init_run()

    def test_best_plan_is_population_minimum(self):
        space, twin, rows = small_setup()
        planner = make_planner("lidos", space, twin, seed=4)
        planner.init_run()
        assert planner.s_best.ft == min(m.ft for m in planner.population)


class TestStepGeneration:
    def test_cache_hits_do_not_advance_t(self, ga):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        ga(population=2)
        planner = make_planner("lidos", space, twin, seed=0, k=1000)
        planner.init_run()
        t_before = planner.t
        planner.step_generation()
        assert planner.t == t_before  # both plans already measured
        assert twin.counter == 2

    def test_operators_off_keep_initial_plans(self, ga):
        space, twin, _ = small_setup()
        ga(crossover=0.0, mutation=0.0)
        planner = make_planner("lidos", space, twin, seed=3, k=10_000)
        planner.init_run()
        initial = {m.plan for m in planner.population}
        for _ in range(5):
            planner.step_generation()
        assert {m.plan for m in planner.population} <= initial

    def test_best_monotone_within_epoch(self):
        space, twin, _ = small_setup(n_values=8)
        planner = make_planner("lidos", space, twin, seed=5, k=10_000)
        planner.init_run()
        bests = planner.trace.events["best_ft"][planner.trace.measurement_mask()].tolist()
        for _ in range(10):
            planner.step_generation()
        bests = planner.trace.events["best_ft"][planner.trace.measurement_mask()].tolist()
        assert bests == sorted(bests, reverse=True)


class TestAdaptationEvents:
    def test_emitted_once_interval_full(self, ga):
        space, twin, _ = small_setup()
        ga(crossover=0.0, mutation=0.0)
        planner = make_planner("lidos", space, twin, seed=6, k=20)
        planner.init_run()  # t == 20 == k
        for _ in range(5):
            planner.step_generation()
        sent = planner.trace.events[planner.trace.events["adaptation_sent"]]
        # Operators are identity, so the best never improves after the first
        # emission and exactly one event fires; it resets t.
        assert len(sent) == 1
        assert sent[0]["ft"] == planner.s_best.ft
        assert planner.t == 0

    def test_every_emission_strictly_improves(self):
        space, twin, _ = small_setup(n_values=10)
        planner = make_planner("lidos", space, twin, seed=7, k=15)
        planner.init_run()
        planner.run_scenario_leg(120)
        sent = planner.trace.events[planner.trace.events["adaptation_sent"]]
        assert len(sent), "expected at least one adaptation"
        values = sent["ft"].tolist()
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_interval_elapses_between_emissions(self):
        space, twin, _ = small_setup(n_values=10)
        k = 15
        planner = make_planner("lidos", space, twin, seed=8, k=k)
        planner.init_run()
        planner.run_scenario_leg(120)
        events = planner.trace.events
        indices = events["measurement_index"][events["adaptation_sent"]].tolist()
        # At least k genuine measurements separate consecutive emissions
        # (the interval counter resets on every emission).
        assert all(b - a >= k for a, b in zip(indices, indices[1:]))
        assert indices[0] >= k


class TestEnvironmentChange:
    def two_env_twin(self, rows_a, rows_b, space):
        ta = make_table(space, rows_a, env_id="A")
        tb = make_table(space, rows_b, env_id="B")
        return make_twin(space, ta, tb, current="A")

    def test_population_remeasured_not_replaced(self, ga):
        domains = (tuple(range(4)), tuple(range(4)))
        space = make_space(*domains)
        rng = random.Random(1)
        rows_a = grid_rows(domains, lambda p: rng.uniform(0, 10))
        rows_b = grid_rows(domains, lambda p: rng.uniform(0, 10))
        twin = self.two_env_twin(rows_a, rows_b, space)
        ga(population=8)
        planner = make_planner("lidos", space, twin, seed=2)
        planner.init_run()
        before = sorted(m.plan for m in planner.population)
        counter_before = twin.counter
        planner.on_environment_change("B")
        assert sorted(m.plan for m in planner.population) == before
        distinct = len(set(before))
        assert twin.counter == counter_before + distinct
        assert planner.t == distinct
        assert planner.epoch_measurements == distinct

    def test_best_reset_to_remeasured_values(self, ga):
        space = make_space((0, 1, 2))
        rows_a = {(0,): 0.0, (1,): 5.0, (2,): 6.0}
        rows_b = {(0,): 9.0, (1,): 1.0, (2,): 2.0}
        twin = self.two_env_twin(rows_a, rows_b, space)
        ga(population=2)
        planner = make_planner("lidos", space, twin, seed=0)
        planner.init_run()
        planner.run_scenario_leg()  # covers the space, best is (0,) at 0.0
        assert planner.s_best.plan == (0,)
        planner.on_environment_change("B")
        assert planner.s_best.ft == min(
            rows_b[m.plan] for m in planner.population
        )

    def test_identical_tables_keep_best_value(self, ga):
        domains = (tuple(range(4)), tuple(range(4)))
        space = make_space(*domains)
        rng = random.Random(8)
        rows = grid_rows(domains, lambda p: rng.uniform(0, 10))
        twin = self.two_env_twin(rows, dict(rows), space)
        ga(population=8)
        planner = make_planner("lidos", space, twin, seed=4)
        planner.init_run()
        before = planner.s_best.ft
        planner.on_environment_change("B")
        assert planner.s_best.ft <= before  # same landscape, best re-found
        assert planner.s_best.ft == min(rows[m.plan] for m in planner.population)

    def test_change_event_recorded(self, ga):
        space = make_space((0, 1))
        twin = self.two_env_twin({(0,): 1.0, (1,): 2.0}, {(0,): 3.0, (1,): 0.5}, space)
        ga(population=2)
        planner = make_planner("lidos", space, twin, seed=0)
        planner.init_run()
        planner.on_environment_change("B")
        changes = planner.trace.events[planner.trace.events["env_change"]]
        assert len(changes) == 1
        assert planner.trace.env_ids[changes[0]["env"]] == "B"


class TestRunScenarioLeg:
    def test_budget_reached_at_generation_granularity(self):
        ta, tb = synth_tables(n_options=4, domain_size=5, n_peaks=10, noise_seed=2)
        space = ta.implied_space()
        twin = make_twin(space, ta, current="A")
        planner = make_planner("lidos", space, twin, seed=1, k=10_000)
        planner.init_run()
        planner.run_scenario_leg(60)
        assert 60 <= planner.epoch_measurements < 60 + 20

    def test_budget_zero_returns_unchanged(self):
        space, twin, _ = small_setup()
        planner = make_planner("lidos", space, twin, seed=1)
        planner.init_run()
        events_before = len(planner.trace.events)
        planner.run_scenario_leg(0)
        assert len(planner.trace.events) == events_before

    def test_coverage_complete_halts(self, ga):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        ga(population=2)
        planner = make_planner("lidos", space, twin, seed=0)
        planner.init_run()
        assert twin.coverage() == 1.0
        planner.run_scenario_leg()  # no budget: stops on coverage alone
        assert twin.counter == 2

    def test_stall_guard_terminates_unreachable_budget(self, ga):
        # Only two plans exist, so a budget of 100 can never be met.
        space = make_space((0, 1), (0, 1))
        table = make_table(space, {(0, 0): 1.0, (1, 1): 2.0})
        twin = make_twin(space, table, current="e")
        ga(population=2)
        planner = make_planner("lidos", space, twin, seed=0)
        planner.init_run()
        planner.run_scenario_leg(100)
        assert planner.epoch_measurements == 2


class TestDeterminism:
    def test_identical_traces_for_identical_seeds(self):
        ta, tb = synth_tables(n_options=3, domain_size=5, n_peaks=5, noise_seed=3)
        space = ta.implied_space()

        def run(seed):
            twin = make_twin(space, ta, tb, current="A")
            planner = make_planner("lidos", space, twin, seed=seed)
            planner.init_run()
            planner.run_scenario_leg(40)
            planner.on_environment_change("B")
            planner.run_scenario_leg(40)
            return (planner.trace.events.tobytes(), planner.trace.env_ids,
                    [member.plan for member in planner.population])

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestMeasurementAccounting:
    def test_distinct_plans_per_epoch_match_counter(self, twin_probe):
        ta, tb = synth_tables(n_options=3, domain_size=5, n_peaks=5, noise_seed=4)
        space = ta.implied_space()
        twin = make_twin(space, ta, tb, current="A")
        planner = make_planner("lidos", space, twin, seed=11)
        planner.init_run()
        planner.run_scenario_leg(50)
        planner.on_environment_change("B")
        planner.run_scenario_leg(50)

        assert [epoch.env_id for epoch in twin_probe[twin]] == ["A", "B"]
        assert_accounting(planner.trace, twin, twin_probe[twin])


class TestDerivedColumns:
    """A trace stores the columns its run decided, and `derived_columns`
    gives back the other two: the counter and the best the planner held."""

    def test_rows_hold_only_the_decided_columns(self):
        rows = RunTrace().rows
        assert rows.dtype.names == ("env", "ft", "adaptation_sent", "env_change")
        assert rows.dtype.itemsize == 14

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_derived_columns_are_what_the_planner_held(self, kind):
        # Ties of 0.0 and -0.0 everywhere: the planner keeps the first plan
        # that reaches a new least, and so must the derived best, sign and all.
        domains = (tuple(range(6)), tuple(range(6)))
        space = make_space(*domains)
        rng = random.Random(5)
        tables = [make_table(space, grid_rows(domains, lambda p: rng.choice(
            (0.0, -0.0, 1.5, 2.5, 4.0))), env_id=env) for env in ("A", "B")]
        twin = make_twin(space, *tables, current="A")
        planner = make_planner(kind, space, twin, seed=9, k=5)
        held = []
        record = planner.trace.record

        def noting(env_id, ft=math.nan, adaptation_sent=False, env_change=False):
            best = math.nan if env_change else planner.s_best.ft
            held.append((twin.counter, best))
            record(env_id, ft, adaptation_sent, env_change)

        planner.trace.record = noting
        planner.init_run()
        planner.run_scenario_leg(25)
        planner.on_environment_change("B")
        planner.run_scenario_leg(25)
        rows = planner.trace.rows
        assert rows["adaptation_sent"].any() and rows["env_change"].sum() == 1
        index, best = derived_columns(rows)
        assert index.tolist() == [counter for counter, _ in held]
        assert best.tobytes() == np.array([value for _, value in held]).tobytes()
        last = [value for _, value in held if value == value][-1]
        assert repr(planner.trace.final_best()) == repr(last)

    def test_legs_and_traces_open_afresh(self):
        rows = np.zeros(9, ROW_DTYPE)
        rows["ft"] = [0.0, -0.0, 0.0, np.nan, 3.0, 2.0, 2.0, 5.0, -1.0]
        rows["adaptation_sent"][[2, 6]] = True
        rows["env_change"][3] = True
        starts = np.zeros(9, np.bool_)
        starts[[0, 7]] = True
        index, best = derived_columns(rows, starts)
        assert index.tolist() == [1, 2, 2, 2, 3, 4, 4, 1, 2]
        assert best.tobytes() == np.array(
            [0.0, 0.0, 0.0, np.nan, 3.0, 2.0, 2.0, 5.0, -1.0]).tobytes()
        # An adaptation row before its leg's first measurement has no best.
        assert derived_columns(rows[6:8])[1].tolist() == [math.inf, 5.0]

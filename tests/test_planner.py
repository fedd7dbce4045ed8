from __future__ import annotations

import itertools
import random

import pytest

from lidos.planner import (
    MmoPlanner,
    PlannerParams,
    binary_tournament,
    boundary_mutation,
    uniform_crossover,
)
from lidos.twin import synth_landscape

from conftest import make_space, make_table, make_twin


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
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError, match="even"):
            PlannerParams(population_size=7)

    def test_rates_bounded(self):
        with pytest.raises(ValueError, match="crossover_rate"):
            PlannerParams(crossover_rate=1.5)
        with pytest.raises(ValueError, match="mutation_rate"):
            PlannerParams(mutation_rate=-0.1)

    def test_interval_positive(self):
        with pytest.raises(ValueError, match="k must be positive"):
            PlannerParams(k=0)


class TestOperators:
    def test_crossover_disabled_passthrough(self):
        rng = random.Random(0)
        a, b = (0, 0, 0), (1, 1, 1)
        assert uniform_crossover(a, b, 0.0, rng) == (a, b)

    def test_crossover_swaps_genes_only(self):
        rng = random.Random(1)
        a, b = (0, 0, 0, 0), (1, 1, 1, 1)
        for _ in range(50):
            c1, c2 = uniform_crossover(a, b, 1.0, rng)
            for x, y in zip(c1, c2):
                assert {x, y} == {0, 1}

    def test_mutation_disabled_identity(self):
        rng = random.Random(2)
        assert boundary_mutation((1, 5), ((0, 2), (0, 9)), 0.0, rng) == (1, 5)

    def test_mutation_hits_bounds_only(self):
        rng = random.Random(3)
        seen = set()
        for _ in range(200):
            seen.add(boundary_mutation((2,), ((0, 4),), 1.0, rng)[0])
        assert seen == {0, 4}

    def test_planner_ends_are_domain_ends(self):
        space = make_space((0, 1, 2), (3,), (-4, 0, 7, 9))
        planner = MmoPlanner(space, make_twin(space, make_table(space, {(0, 3, 0): 1.0})),
                             PlannerParams(), seed=0)
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


class TestInitRun:
    def test_counts_match_population(self):
        space, twin, _ = small_setup()
        planner = MmoPlanner(space, twin, PlannerParams(), seed=1)
        planner.init_run()
        assert twin.counter == 20
        assert planner.t == 20
        assert len(planner.population) == 20
        assert len({m.plan for m in planner.population}) == 20

    def test_deterministic_population(self):
        space, twin, _ = small_setup()
        p1 = MmoPlanner(space, twin, PlannerParams(), seed=9)
        p1.init_run()
        twin2 = make_twin(space, list(twin.tables.values())[0], current="e")
        p2 = MmoPlanner(space, twin2, PlannerParams(), seed=9)
        p2.init_run()
        assert [m.plan for m in p1.population] == [m.plan for m in p2.population]

    def test_tiny_dataset_full_coverage(self):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        planner = MmoPlanner(space, twin, PlannerParams(population_size=2), seed=0)
        planner.init_run()
        assert twin.coverage() == 1.0

    def test_dataset_smaller_than_population(self):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        planner = MmoPlanner(space, twin, PlannerParams(population_size=4), seed=0)
        planner.init_run()
        assert len(planner.population) == 4
        assert twin.counter == 2  # only distinct plans cost measurements

    def test_requires_current_environment(self):
        space, twin, _ = small_setup()
        twin2 = make_twin(space, list(twin.tables.values())[0])
        planner = MmoPlanner(space, twin2, PlannerParams(), seed=0)
        with pytest.raises(ValueError, match="current environment"):
            planner.init_run()

    def test_best_plan_is_population_minimum(self):
        space, twin, rows = small_setup()
        planner = MmoPlanner(space, twin, PlannerParams(), seed=4)
        planner.init_run()
        assert planner.s_best.ft == min(m.ft for m in planner.population)


class TestStepGeneration:
    def test_cache_hits_do_not_advance_t(self):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        planner = MmoPlanner(space, twin, PlannerParams(population_size=2, k=1000), seed=0)
        planner.init_run()
        t_before = planner.t
        planner.step_generation()
        assert planner.t == t_before  # both plans already measured
        assert twin.counter == 2

    def test_operators_off_keep_initial_plans(self):
        space, twin, _ = small_setup()
        params = PlannerParams(crossover_rate=0.0, mutation_rate=0.0, k=10_000)
        planner = MmoPlanner(space, twin, params, seed=3)
        planner.init_run()
        initial = {m.plan for m in planner.population}
        for _ in range(5):
            planner.step_generation()
        assert {m.plan for m in planner.population} <= initial

    def test_best_monotone_within_epoch(self):
        space, twin, _ = small_setup(n_values=8)
        planner = MmoPlanner(space, twin, PlannerParams(k=10_000), seed=5)
        planner.init_run()
        bests = planner.trace.events["best_ft"][planner.trace.measurement_mask()].tolist()
        for _ in range(10):
            planner.step_generation()
        bests = planner.trace.events["best_ft"][planner.trace.measurement_mask()].tolist()
        assert bests == sorted(bests, reverse=True)


class TestAdaptationEvents:
    def test_emitted_once_interval_full(self):
        space, twin, _ = small_setup()
        params = PlannerParams(crossover_rate=0.0, mutation_rate=0.0, k=20)
        planner = MmoPlanner(space, twin, params, seed=6)
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
        planner = MmoPlanner(space, twin, PlannerParams(k=15), seed=7)
        planner.init_run()
        planner.run_scenario_leg(120)
        sent = planner.trace.events[planner.trace.events["adaptation_sent"]]
        assert len(sent), "expected at least one adaptation"
        values = sent["ft"].tolist()
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_interval_elapses_between_emissions(self):
        space, twin, _ = small_setup(n_values=10)
        k = 15
        planner = MmoPlanner(space, twin, PlannerParams(k=k), seed=8)
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

    def test_population_remeasured_not_replaced(self):
        domains = (tuple(range(4)), tuple(range(4)))
        space = make_space(*domains)
        rng = random.Random(1)
        rows_a = grid_rows(domains, lambda p: rng.uniform(0, 10))
        rows_b = grid_rows(domains, lambda p: rng.uniform(0, 10))
        twin = self.two_env_twin(rows_a, rows_b, space)
        planner = MmoPlanner(space, twin, PlannerParams(population_size=8), seed=2)
        planner.init_run()
        before = sorted(m.plan for m in planner.population)
        counter_before = twin.counter
        planner.on_environment_change("B")
        assert sorted(m.plan for m in planner.population) == before
        distinct = len(set(before))
        assert twin.counter == counter_before + distinct
        assert planner.t == distinct
        assert planner.epoch_measurements == distinct

    def test_best_reset_to_remeasured_values(self):
        space = make_space((0, 1, 2))
        rows_a = {(0,): 0.0, (1,): 5.0, (2,): 6.0}
        rows_b = {(0,): 9.0, (1,): 1.0, (2,): 2.0}
        twin = self.two_env_twin(rows_a, rows_b, space)
        planner = MmoPlanner(space, twin, PlannerParams(population_size=2), seed=0)
        planner.init_run()
        planner.run_scenario_leg()  # covers the space, best is (0,) at 0.0
        assert planner.s_best.plan == (0,)
        planner.on_environment_change("B")
        assert planner.s_best.ft == min(
            rows_b[m.plan] for m in planner.population
        )

    def test_identical_tables_keep_best_value(self):
        domains = (tuple(range(4)), tuple(range(4)))
        space = make_space(*domains)
        rng = random.Random(8)
        rows = grid_rows(domains, lambda p: rng.uniform(0, 10))
        twin = self.two_env_twin(rows, dict(rows), space)
        planner = MmoPlanner(space, twin, PlannerParams(population_size=8), seed=4)
        planner.init_run()
        before = planner.s_best.ft
        planner.on_environment_change("B")
        assert planner.s_best.ft <= before  # same landscape, best re-found
        assert planner.s_best.ft == min(rows[m.plan] for m in planner.population)

    def test_change_event_recorded(self):
        space = make_space((0, 1))
        twin = self.two_env_twin({(0,): 1.0, (1,): 2.0}, {(0,): 3.0, (1,): 0.5}, space)
        planner = MmoPlanner(space, twin, PlannerParams(population_size=2), seed=0)
        planner.init_run()
        planner.on_environment_change("B")
        changes = planner.trace.events[planner.trace.events["env_change"]]
        assert len(changes) == 1
        assert planner.trace.env_ids[changes[0]["env"]] == "B"


class TestRunScenarioLeg:
    def test_budget_reached_at_generation_granularity(self):
        ta, tb = synth_landscape(n_options=4, domain_size=5, n_peaks=10, noise_seed=2)
        space = ta.implied_space()
        twin = make_twin(space, ta, current="A")
        planner = MmoPlanner(space, twin, PlannerParams(k=10_000), seed=1)
        planner.init_run()
        planner.run_scenario_leg(60)
        assert 60 <= planner.epoch_measurements < 60 + 20

    def test_budget_zero_returns_unchanged(self):
        space, twin, _ = small_setup()
        planner = MmoPlanner(space, twin, PlannerParams(), seed=1)
        planner.init_run()
        events_before = len(planner.trace.events)
        planner.run_scenario_leg(0)
        assert len(planner.trace.events) == events_before

    def test_coverage_complete_halts(self):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        planner = MmoPlanner(space, twin, PlannerParams(population_size=2), seed=0)
        planner.init_run()
        assert twin.coverage() == 1.0
        planner.run_scenario_leg()  # no budget: stops on coverage alone
        assert twin.counter == 2

    def test_stall_guard_terminates_unreachable_budget(self):
        # Only two plans exist, so a budget of 100 can never be met.
        space = make_space((0, 1), (0, 1))
        table = make_table(space, {(0, 0): 1.0, (1, 1): 2.0})
        twin = make_twin(space, table, current="e")
        planner = MmoPlanner(space, twin, PlannerParams(population_size=2), seed=0)
        planner.init_run()
        planner.run_scenario_leg(100)
        assert planner.epoch_measurements == 2


class TestDeterminism:
    def test_identical_traces_for_identical_seeds(self):
        ta, tb = synth_landscape(n_options=3, domain_size=5, n_peaks=5, noise_seed=3)
        space = ta.implied_space()

        def run(seed):
            twin = make_twin(space, ta, tb, current="A")
            planner = MmoPlanner(space, twin, PlannerParams(), seed=seed)
            planner.init_run()
            planner.run_scenario_leg(40)
            planner.on_environment_change("B")
            planner.run_scenario_leg(40)
            return planner.trace.events.tobytes(), planner.trace.env_ids, planner.trace.plans

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestMeasurementAccounting:
    def test_distinct_plans_per_epoch_match_counter(self):
        ta, tb = synth_landscape(n_options=3, domain_size=5, n_peaks=5, noise_seed=4)
        space = ta.implied_space()
        twin = make_twin(space, ta, tb, current="A")
        planner = MmoPlanner(space, twin, PlannerParams(), seed=11)
        planner.init_run()
        planner.run_scenario_leg(50)
        planner.on_environment_change("B")
        planner.run_scenario_leg(50)

        events = planner.trace.events
        epochs: list[list] = [[]]
        for event, plan in zip(events, planner.trace.plans):
            if event["env_change"]:
                epochs.append([])
            elif not event["adaptation_sent"]:
                epochs[-1].append(plan)
        total = 0
        for plans in epochs:
            assert len(plans) == len(set(plans))
            total += len(plans)
        assert total == twin.counter
        indices = events["measurement_index"][planner.trace.measurement_mask()].tolist()
        assert indices == sorted(set(indices))
        assert indices[-1] == twin.counter

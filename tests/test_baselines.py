from __future__ import annotations

import hashlib
import itertools
import random
import subprocess
import sys

import pytest

from lidos.baselines import PLANNER_KINDS, make_planner
from lidos import planner as planner_module
from lidos.planner import derive_seed
from lidos.twin import synth_tables

from conftest import child_env, make_space, make_table, make_twin


def rugged_two_env(n_values=6, seed=31):
    domains = (tuple(range(n_values)), tuple(range(n_values)))
    space = make_space(*domains)
    rng = random.Random(seed)
    rows_a = {p: rng.uniform(0, 50) for p in itertools.product(*domains)}
    rows_b = {p: rng.uniform(0, 50) for p in itertools.product(*domains)}
    ta = make_table(space, rows_a, env_id="A")
    tb = make_table(space, rows_b, env_id="B")
    return space, ta, tb


class TestMakePlanner:
    def test_all_kinds(self):
        space, ta, tb = rugged_two_env()
        for kind in PLANNER_KINDS:
            twin = make_twin(space, ta, tb, current="A")
            planner = make_planner(kind, space, twin, 1)
            assert planner.kind == kind

    def test_unknown_kind(self):
        space, ta, tb = rugged_two_env()
        twin = make_twin(space, ta, tb, current="A")
        with pytest.raises(ValueError, match="unknown planner kind"):
            make_planner("annealing", space, twin, 1)

    def test_shared_parameterization(self, ga):
        # Every kind takes the module's population size and the given k.
        space, ta, tb = rugged_two_env()
        ga(population=10)
        for kind in PLANNER_KINDS:
            twin = make_twin(space, ta, tb, current="A")
            planner = make_planner(kind, space, twin, 1, k=33)
            planner.init_run()
            assert planner.k == 33
            assert len(planner.population) == 10


class TestSoga:
    def test_elitism_keeps_pool_minimum(self, ga):
        space, ta, tb = rugged_two_env()
        twin = make_twin(space, ta, tb, current="A")
        ga(population=8)
        planner = make_planner("pseudo_dynamic", space, twin, 5, k=10_000)
        planner.init_run()
        for _ in range(10):
            pool_min = min(m.ft for m in planner.population)
            planner.step_generation()
            new_min = min(m.ft for m in planner.population)
            assert new_min <= pool_min

    def test_operators_off_keep_initial_plans(self, ga):
        # Identity operators leave tournament selection as the only force:
        # no plan outside the initial set can appear, and elitism pins the best.
        space, ta, tb = rugged_two_env()
        twin = make_twin(space, ta, tb, current="A")
        ga(population=8, crossover=0.0, mutation=0.0)
        planner = make_planner("pseudo_dynamic", space, twin, 5, k=10_000)
        planner.init_run()
        initial = {m.plan for m in planner.population}
        best = min(m.ft for m in planner.population)
        for _ in range(5):
            planner.step_generation()
        assert {m.plan for m in planner.population} <= initial
        assert min(m.ft for m in planner.population) == best
        assert twin.counter == len(initial)  # no new measurements either

    def test_cache_hits_do_not_advance_t(self, ga):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 1.0, (1,): 2.0})
        twin = make_twin(space, table, current="e")
        ga(population=2)
        planner = make_planner("pseudo_dynamic", space, twin, 0, k=1000)
        planner.init_run()
        t_before = planner.t
        planner.step_generation()
        assert planner.t == t_before


class TestRestart:
    def test_same_seed_same_population(self, ga):
        space, ta, tb = rugged_two_env()
        twin1 = make_twin(space, ta, tb, current="A")
        ga(population=8)
        p1 = make_planner("stationary", space, twin1, 3)
        p1.init_run()
        p1.restart(12345)
        pop1 = [m.plan for m in p1.population]
        twin2 = make_twin(space, ta, tb, current="A")
        p2 = make_planner("stationary", space, twin2, 99)
        p2.init_run()
        p2.restart(12345)
        assert [m.plan for m in p2.population] == pop1

    def test_counter_grows_by_distinct_plans_only(self, ga):
        space, ta, tb = rugged_two_env()
        twin = make_twin(space, ta, tb, current="A")
        ga(population=8)
        planner = make_planner("stationary", space, twin, 3)
        planner.init_run()
        before = twin.counter
        planner.on_environment_change("B")
        new_distinct = len({m.plan for m in planner.population})
        assert twin.counter == before + new_distinct
        assert new_distinct <= 8

    def test_resets_best_and_interval(self, ga):
        space, ta, tb = rugged_two_env()
        twin = make_twin(space, ta, tb, current="A")
        ga(population=8)
        planner = make_planner("stationary", space, twin, 3)
        planner.init_run()
        planner.on_environment_change("B")
        assert planner.t == len({m.plan for m in planner.population})
        assert planner.s_best.ft == min(m.ft for m in planner.population)


class TestChangeHandling:
    @pytest.fixture(autouse=True)
    def population_of_ten(self, ga):
        ga(population=10)

    def run_to_change(self, kind, seed=7):
        ta, tb = synth_tables(n_options=3, domain_size=5, n_peaks=5, noise_seed=1)
        space = ta.implied_space()
        twin = make_twin(space, ta, tb, current="A")
        planner = make_planner(kind, space, twin, seed)
        planner.init_run()
        planner.run_scenario_leg(30)
        before = sorted(m.plan for m in planner.population)
        planner.on_environment_change("B")
        after = sorted(m.plan for m in planner.population)
        return before, after, planner

    def test_pseudo_dynamic_keeps_population(self):
        before, after, _ = self.run_to_change("pseudo_dynamic")
        assert after == before

    def test_lidos_keeps_population(self):
        before, after, _ = self.run_to_change("lidos")
        assert after == before

    def test_lidos_sta_discards_population(self):
        before, after, _ = self.run_to_change("lidos_sta")
        assert after != before

    def test_stationary_discards_population(self):
        before, after, _ = self.run_to_change("stationary")
        assert after != before

    def test_restart_seed_derivation_reproducible(self):
        _, after1, _ = self.run_to_change("stationary", seed=7)
        _, after2, _ = self.run_to_change("stationary", seed=7)
        assert after1 == after2


# Part lists of the seeds a run derives, and some that only a caller could.
SEED_PARTS = [(), (0,), (1, "lidos", 0), (11, "stationary", 1), (7, "restart", 3),
              (3955309019, "scott-knott"), ("é", -2, 2.5, None)]


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "lidos", 0) == derive_seed(1, "lidos", 0)
        assert derive_seed(1, "lidos", 0) != derive_seed(1, "lidos", 1)
        assert derive_seed(1, "lidos", 0) != derive_seed(1, "stationary", 0)

    def test_known_value_pinned(self):
        # Guards against accidental hash-algorithm or encoding changes, which
        # would silently re-seed every published experiment.
        assert derive_seed(0) == int.from_bytes(
            __import__("hashlib").sha256(b"0").digest()[:8], "big"
        )

    @pytest.mark.parametrize("parts", SEED_PARTS)
    def test_equals_the_first_eight_bytes_of_sha256(self, parts):
        text = ":".join(map(str, parts)).encode("utf-8")
        assert derive_seed(*parts) == int.from_bytes(hashlib.sha256(text).digest()[:8], "big")

    def test_hashlib_fallback_gives_the_same_seeds(self):
        # A process without CPython's built-in SHA-256 modules takes hashlib's.
        script = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from lidos import planner\n"
            "assert planner._sha256 is hashlib.sha256\n"
            f"print([planner.derive_seed(*parts) for parts in {SEED_PARTS!r}])\n")
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{[derive_seed(*parts) for parts in SEED_PARTS]}\n"


class TestDifferentRowSets:
    """Environments may measure different plans of one space; keeping the
    population across a change must repair the plans the new table lacks."""

    def parity_twin(self):
        domains = (tuple(range(4)),) * 3
        space = make_space(*domains)
        rng = random.Random(3)
        rows_a, rows_b = {}, {}
        for plan in itertools.product(*domains):
            (rows_a if sum(plan) % 2 else rows_b)[plan] = rng.uniform(0, 10)
        ta = make_table(space, rows_a, env_id="A")
        tb = make_table(space, rows_b, env_id="B")
        assert ta.implied_space() == tb.implied_space() == space
        return space, make_twin(space, ta, tb, current="A"), rows_b

    @pytest.mark.parametrize("kind", PLANNER_KINDS)
    def test_change_to_disjoint_rows(self, kind):
        space, twin, rows_b = self.parity_twin()
        planner = make_planner(kind, space, twin, seed=5)
        planner.init_run()
        planner.run_scenario_leg(20)
        planner.on_environment_change("B")
        assert all(m.plan in rows_b for m in planner.population)
        assert all(m.ft == rows_b[m.plan] for m in planner.population)
        assert len(planner.population) == planner_module.POPULATION_SIZE
        planner.run_scenario_leg(20)
        after = planner.trace.measurements_after_change(1)
        assert len(after) and all(planner.trace.env_ids[code] == "B" for code in after["env"])

    def test_remeasured_plan_is_the_repaired_plan(self):
        space, twin, rows_b = self.parity_twin()
        planner = make_planner("pseudo_dynamic", space, twin, seed=5)
        planner.init_run()
        old_plans = [m.plan for m in planner.population]
        planner.on_environment_change("B")
        for old, member in zip(old_plans, planner.population):
            assert member.plan == twin.repair(old)

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

import lidos.twin as twin_module
from lidos.twin import (
    CyberTwin,
    Environment,
    MeasurementTable,
    load_measurements,
    synth_landscape,
)

from conftest import make_space, make_table, make_twin


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadMeasurements:
    def test_two_row_file(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,b,performance\n0,1,3.5\n1,2,4.5\n")
        table = load_measurements(path, Environment("e"))
        assert len(table) == 2
        assert table.rows[(0, 1)] == 3.5
        assert table.option_names == ("a", "b")

    def test_implied_space_sorted_distinct(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,b,perf\n1,9,0\n0,9,1\n1,2,2\n")
        table = load_measurements(path, Environment("e"))
        space = table.implied_space()
        assert space.options[0].domain == (0, 1)
        assert space.options[1].domain == (2, 9)

    def test_conflicting_duplicate_rows(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n0,1.0\n0,2.0\n")
        with pytest.raises(ValueError, match="conflicting"):
            load_measurements(path, Environment("e"))

    def test_identical_duplicate_rows_collapse(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n0,1.0\n0,1.0\n1,2.0\n")
        table = load_measurements(path, Environment("e"))
        assert len(table) == 2

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\nzero,1.0\n")
        with pytest.raises(ValueError, match="m.csv:2"):
            load_measurements(path, Environment("e"))

    def test_missing_performance_column(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a\n0\n")
        with pytest.raises(ValueError, match="performance column"):
            load_measurements(path, Environment("e"))

    def test_fractional_option_value(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n0.5,1.0\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_measurements(path, Environment("e"))

    def test_integral_float_option_accepted(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n1.0,3.0\n")
        table = load_measurements(path, Environment("e"))
        assert table.rows[(1,)] == 3.0

    def test_large_integer_option_exact(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n9007199254740993,1.0\n3.0,2.0\n")
        table = load_measurements(path, Environment("e"))
        assert set(table.rows) == {(9007199254740993,), (3,)}

    @pytest.mark.parametrize("cell", ["2.5", "inf", "-inf", "nan", "1e400", "1e20",
                                      "1.0000000000000001", "4503599627370496.5",
                                      "1e-400"])
    def test_inexact_or_non_finite_option_rejected(self, tmp_path, cell):
        path = write_csv(tmp_path, "m.csv", f"a,perf\n0,1.0\n{cell},2.0\n")
        with pytest.raises(ValueError, match="m.csv:3: option value"):
            load_measurements(path, Environment("e"))


class TestLoadErrorsByteForByte:
    """The loader's and the table checks' error texts, each naming the first
    offending line or plan."""

    def load_error(self, tmp_path, text):
        path = write_csv(tmp_path, "m.csv", text)
        with pytest.raises(ValueError) as exc:
            load_measurements(path, Environment("e"))
        return str(exc.value).replace(str(path), "m.csv")

    def test_ragged_row(self, tmp_path):
        assert self.load_error(tmp_path, "a,b,perf\n0,1,2.0\n0,1\n1,1,3.0,4\n") == (
            "m.csv:3: expected 3 cells, got 2")

    def test_blank_rows_are_skipped_but_counted(self, tmp_path):
        text = "a,b,perf\n0,1,2.0\n\n , \t,\n1,1,3.0\n1,x,4.0\n"
        assert self.load_error(tmp_path, text) == "m.csv:6: option value 'x' is not a number"
        table = load_measurements(write_csv(tmp_path, "ok.csv", text.rsplit("1,x", 1)[0]),
                                  Environment("e"))
        assert table.rows == {(0, 1): 2.0, (1, 1): 3.0}

    def test_number_literals_for_integers(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,b,perf\n3.0,1e3,1.5\n 4 ,-0,2.5\n")
        table = load_measurements(path, Environment("e"))
        assert table.rows == {(3, 1000): 1.5, (4, 0): 2.5}
        assert all(type(v) is int for plan in table.rows for v in plan)

    def test_first_bad_cell_of_a_row_is_named(self, tmp_path):
        assert self.load_error(tmp_path, "a,b,c,perf\n1.0,2.5,x,1.0\n") == (
            "m.csv:2: option value '2.5' is not an integer")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_performance(self, tmp_path, cell):
        assert self.load_error(tmp_path, f"a,perf\n0,1.0\n1,{cell}\n") == (
            "m.csv:3: non-finite performance value")

    def test_bad_performance_literal(self, tmp_path):
        assert self.load_error(tmp_path, "a,perf\n0,fast\n") == (
            "m.csv:2: could not convert string to float: 'fast'")

    def test_first_plan_outside_the_space(self):
        space = make_space((0, 1), (0, 2))
        table = make_table(make_space((0, 1, 5), (0, 2, 3)),
                           {(0, 2): 1.0, (1, 3): 2.0, (5, 0): 3.0, (1, 2): 4.0})
        with pytest.raises(ValueError) as exc:
            table.validate_space(space)
        assert str(exc.value) == "table for 'e' holds plan (1, 3) outside the config space"
        with pytest.raises(ValueError) as exc:
            table.validate_space(make_space((0, 1)))
        assert str(exc.value) == "table for 'e' holds plan (0, 2) outside the config space"
        table.validate_space(make_space((0, 1, 5), (0, 2, 3, 4)))

    def test_table_rows_are_checked_in_order(self):
        env = Environment("e")
        with pytest.raises(ValueError) as exc:
            MeasurementTable(env, ("a", "b"), {(0, 1): 1.0, (2, 3): float("nan"), (4,): 2.0})
        assert str(exc.value) == "non-finite performance value for plan (2, 3)"
        with pytest.raises(ValueError) as exc:
            MeasurementTable(env, ("a", "b"), {(0, 1): 1.0, (4,): 2.0, (2, 3): float("inf")})
        assert str(exc.value) == "plan (4,) does not match option columns ('a', 'b')"
        with pytest.raises(ValueError) as exc:
            MeasurementTable(env, ("a", "b"), {(0, 1): 1.0, (2, 3): -math.inf})
        assert str(exc.value) == "non-finite performance value for plan (2, 3)"


class TestEnvironment:
    def test_sign_follows_direction(self):
        for direction, sign in (("minimize", 1.0), ("maximize", -1.0)):
            env = Environment("e", direction)
            assert env.sign == sign
        # Replacing the direction recomputes the sign.
        assert replace(Environment("e"), direction="maximize").sign == -1.0

    def test_sign_is_derived_not_compared(self):
        assert Environment("e", "maximize") == Environment("e", "maximize")
        assert "sign" not in repr(Environment("e"))
        with pytest.raises(TypeError):
            Environment("e", "minimize", "", -1.0)


class TestMeasure:
    def test_returns_value(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        assert twin.measure((0,)) == 7.0

    def test_cache_hit_keeps_counter(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        first = twin.measure((0,))
        assert twin.counter == 1
        second = twin.measure((0,))
        assert twin.counter == 1
        assert first == second

    def test_remeasured_after_environment_change(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        twin.measure((0,))
        twin.set_environment("e")
        assert twin.coverage() == 0.0
        twin.measure((0,))
        assert twin.counter == 2

    def test_same_environment_reentry_clears_cache(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        twin.measure((0,))
        twin.measure((1,))
        assert twin.coverage() == 1.0
        twin.set_environment("e")
        assert twin.coverage() == 0.0

    def test_unknown_plan(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0}), current="e")
        with pytest.raises(KeyError):
            twin.measure((1,))

    def test_unknown_environment(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0}))
        with pytest.raises(ValueError, match="unknown environment"):
            twin.set_environment("nope")

    def test_maximize_negated_at_boundary(self):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 7.0, (1,): 9.0}, direction="maximize")
        twin = make_twin(space, table, current="e")
        # Larger raw is better, so the canonical value of the better plan is lower.
        assert twin.measure((1,)) == -9.0
        assert twin.measure((0,)) == -7.0

    def test_counter_untouched_by_change(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 1.0, (1,): 2.0}), current="e")
        twin.measure((0,))
        twin.set_environment("e")
        assert twin.counter == 1


class TestCoverage:
    def test_fresh_zero(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 1.0, (1,): 2.0}), current="e")
        assert twin.coverage() == 0.0

    def test_half(self):
        space = make_space((0, 1, 2), (0, 1))
        rows = {p: float(i) for i, p in enumerate(itertools.product((0, 1, 2), (0, 1)))}
        twin = make_twin(space, make_table(space, rows), current="e")
        for plan in list(rows)[:3]:
            twin.measure(plan)
        assert twin.coverage() == 0.5

    def test_monotone_within_epoch(self):
        space = make_space((0, 1, 2))
        twin = make_twin(space, make_table(space, {(0,): 1, (1,): 2, (2,): 3}), current="e")
        seen = [twin.coverage()]
        for plan in [(0,), (0,), (1,), (2,)]:
            twin.measure(plan)
            seen.append(twin.coverage())
        assert seen == sorted(seen)
        assert seen[-1] == 1.0


class TestRepair:
    def test_on_table_passthrough(self):
        space = make_space((0, 1), (0, 1))
        twin = make_twin(space, make_table(space, {(0, 0): 1.0, (1, 1): 2.0}), current="e")
        assert twin.repair((1, 1)) == (1, 1)

    def test_nearest_measured(self):
        space = make_space((0, 1), (0, 1))
        twin = make_twin(space, make_table(space, {(0, 0): 1.0, (1, 1): 2.0}), current="e")
        # (0, 1) is one step from both; tie resolves to the lexicographically lowest.
        assert twin.repair((0, 1)) == (0, 0)

    def test_nearest_wins_over_lexicographic(self):
        space = make_space((0, 1, 2, 3, 4), (0, 1))
        twin = make_twin(space, make_table(space, {(0, 0): 1.0, (4, 1): 2.0}), current="e")
        assert twin.repair((3, 1)) == (4, 1)

    def test_nearest_rejects_wrong_lengths(self):
        space = make_space((0, 4), (0, 4), (0, 4))
        table = make_table(space, {(0, 0, 0): 1.0, (4, 4, 4): 2.0})
        with pytest.raises(ValueError, match="plan has 1 values and the scale 3"):
            table.nearest((4,), (0.25,) * 3)
        with pytest.raises(ValueError, match="plan has 3 values and the scale 1"):
            table.nearest((0, 4, 4), (0.25,))
        assert table.nearest((0, 4, 4), (0.25,) * 3) == (4, 4, 4)


def brute_force_nearest(rows, plan, scale):
    """Nearest measured plan by the row-wise formula over the whole table;
    argmin takes the first minimum, so the lexicographically lowest plan wins
    ties."""
    plans = sorted(rows)
    diff = (np.asarray(plans, dtype=float) - np.asarray(plan, dtype=float)) * np.asarray(scale)
    return plans[int(np.argmin((diff * diff).sum(axis=1)))]


def brute_force_repair(rows, plan, scale):
    return plan if plan in rows else brute_force_nearest(rows, plan, scale)


def random_domain(rng):
    """Mostly non-dyadic spans, some single-value (zero-span) options."""
    shape = rng.random()
    if shape < 0.15:
        return (rng.randint(-3, 5),)
    if shape < 0.3:
        return (0, 1, 2, 3)
    if shape < 0.45:
        return (1, 2, 4, 8, 9)
    return tuple(sorted(rng.sample(range(-4, 12), rng.randint(2, 5))))


class TestRepairOracle:
    """Seeded property loops: repair answers what the brute-force formula
    answers, on first searches, memo hits and after environment switches."""

    def test_random_sparse_tables(self):
        rng = random.Random(2024)
        for _ in range(60):
            n_options = rng.randint(1, 12)
            space = make_space(*(random_domain(rng) for _ in range(n_options)))
            rows = {space.random_plan(rng): rng.random() for _ in range(rng.randint(1, 80))}
            twin = make_twin(space, make_table(space, rows), current="e")
            queries = [space.random_plan(rng) for _ in range(25)]
            for plan in queries + queries[::-1]:
                assert twin.repair(plan) == brute_force_repair(rows, plan, space.scale)

    def test_tie_heavy_layouts(self):
        # Every row is the query plus a signed permutation of one step vector,
        # so all rows lie at one distance. Summed in different orders, the
        # float distances disagree in the last bits (numpy sums rows of 8 or
        # more in a pairwise order); the answer is what the row-wise formula
        # makes of them.
        rng = random.Random(7)
        for n_options, span in ((4, 3), (7, 6), (8, 6), (9, 5), (12, 6), (16, 7)):
            space = make_space(*(tuple(range(span + 1)),) * n_options)
            query = tuple(rng.randint(3, span - 3) if span > 5 else 1
                          for _ in range(n_options))
            base = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n_options)]
            rows = {}
            for _ in range(300):
                step = rng.sample(base, n_options)
                plan = tuple(q + d * rng.choice((-1, 1)) for q, d in zip(query, step))
                if space.validate_plan(plan) and plan != query:
                    rows[plan] = 0.0
            twin = make_twin(space, make_table(space, rows), current="e")
            expected = brute_force_repair(rows, query, space.scale)
            assert twin.repair(query) == expected
            assert twin.repair(query) == expected

    def test_environment_switches(self):
        rng = random.Random(99)
        for _ in range(20):
            space = make_space(*(random_domain(rng) for _ in range(rng.randint(1, 10))))
            rows_a = {space.random_plan(rng): 1.0 for _ in range(40)}
            rows_b = {space.random_plan(rng): 2.0 for _ in range(40)}
            twin = make_twin(space, make_table(space, rows_a, env_id="A"),
                             make_table(space, rows_b, env_id="B"))
            queries = [space.random_plan(rng) for _ in range(15)]
            for env_id, rows in (("A", rows_a), ("B", rows_b), ("A", rows_a)):
                twin.set_environment(env_id)
                for plan in queries:
                    assert twin.repair(plan) == brute_force_repair(rows, plan, space.scale)

    def test_table_answers_per_scale(self):
        rng = random.Random(5)
        space = make_space((0, 1, 2, 3), (0, 2, 5), (1, 2, 4, 8, 9))
        rows = {space.random_plan(rng): 0.0 for _ in range(12)}
        table = make_table(space, rows)
        queries = [space.random_plan(rng) for _ in range(30)]
        for scale in (space.scale, (1.0, 1.0, 1.0), (0.0, 0.5, 1.0), space.scale):
            for plan in queries:
                assert table.nearest(plan, scale) == brute_force_nearest(rows, plan, scale)

    def test_wide_spans(self):
        # Spans of 2**20 to 2**52 with values at the domain ends: scaled to
        # [0, 1], neighbouring values differ by as little as 2**-52, so rows
        # can lie at distances that differ only in their last bits. Each
        # table also holds a pair around the middle of the first option,
        # `mid - d - 1` and `mid + d` with d = span / 4 >= 2**34, whose
        # distances differ by about 2/d relative: the lexicographically lower
        # one is farther.
        rng = random.Random(52)
        for _ in range(40):
            n_options = rng.randint(1, 8)
            spans = [2 ** rng.randint(36, 52)] + [2 ** rng.randint(20, 52)
                                                  for _ in range(n_options - 1)]
            space = make_space(*(
                (0, 1, 2, span // 4 - 1, span // 2, 3 * span // 4, span - 2, span - 1, span)
                for span in spans))
            rows = {space.random_plan(rng): 0.0 for _ in range(rng.randint(1, 60))}
            query = tuple(span // 2 for span in spans)
            near, far = (3 * spans[0] // 4,) + query[1:], (spans[0] // 4 - 1,) + query[1:]
            rows[near] = rows[far] = 0.0
            table = make_table(space, rows)
            for plan in [query] + [space.random_plan(rng) for _ in range(20)]:
                assert table.nearest(plan, space.scale) == brute_force_nearest(
                    rows, plan, space.scale)
            if query not in rows:
                assert table.nearest(query, space.scale) == near

    @pytest.mark.parametrize("choices", [(1e-25,), (1e20,), (1e20, 1.0, 1e-25, 0.0)],
                             ids=["subnormal", "overflow", "mixed"])
    def test_extreme_caller_scales(self, choices):
        # With values up to 2**21, a scale of 1e-25 makes terms from 1e-50 to
        # about 4e-38, subnormal or zero in single precision, and 1e20 makes
        # terms of up to about 4e52, past its range; mixed, one row's terms
        # span over 100 orders of magnitude. Neither may warn.
        rng = random.Random(len(choices))
        for _ in range(40):
            n_options = rng.randint(1, 8)
            space = make_space(*(tuple(sorted(rng.sample(range(2**21), rng.randint(1, 6))))
                                 for _ in range(n_options)))
            rows = {space.random_plan(rng): 0.0 for _ in range(rng.randint(1, 60))}
            scale = tuple(rng.choice(choices) for _ in range(n_options))
            table = make_table(space, rows)
            near = [tuple(v if rng.random() < 0.7 else q
                          for v, q in zip(row, space.random_plan(rng)))
                    for row in rng.sample(sorted(rows), min(10, len(rows)))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for plan in near + [space.random_plan(rng) for _ in range(10)]:
                    assert table.nearest(plan, scale) == brute_force_nearest(rows, plan, scale)

    def test_subnormal_terms_rank_rows_the_wrong_way(self):
        # Under a scale of 1e-25 the squared distances are about 6.4e-45 for
        # (800, 0, 0) and 7.0e-45 for (0, 590, 590), a few single precision
        # subnormals each: a search that rounded its terms to single
        # precision would make the second row nearer.
        rows = {(800, 0, 0): 0.0, (0, 590, 590): 0.0}
        table = make_table(make_space((0, 800), (0, 590), (0, 590)), rows)
        scale = (1e-25,) * 3
        assert brute_force_nearest(rows, (0, 0, 0), scale) == (800, 0, 0)
        assert table.nearest((0, 0, 0), scale) == (800, 0, 0)

    @pytest.mark.parametrize("room", [0, 3])
    def test_terms_past_the_cache_limit(self, monkeypatch, room):
        # Once the cache is full, a search computes its uncached terms anew
        # and adds them with the cached ones.
        rng = random.Random(room)
        space = make_space(*(tuple(range(0, 9 * k + 1, k)) for k in (1, 3, 7, 100)))
        rows = {space.random_plan(rng): 0.0 for _ in range(200)}
        table = make_table(space, rows)
        itemsize = np.dtype(float).itemsize
        monkeypatch.setattr(twin_module, "_TERM_CACHE_BYTES", room * itemsize * len(rows))
        for _ in range(100):
            plan = space.random_plan(rng)
            assert table.nearest(plan, space.scale) == brute_force_nearest(rows, plan, space.scale)
        assert sum(map(len, table._terms)) == room
        assert all(term.itemsize == itemsize for cache in table._terms
                   for term in cache.values())

    def test_term_cache_follows_the_scale(self):
        # The same (option, value) pairs are searched under scales that weigh
        # the options differently, one query at a time across all scales, so
        # a term kept from the previous scale gives a wrong answer.
        rng = random.Random(8)
        space = make_space((0, 1, 2, 3, 4), (0, 2, 5, 9), (1, 2, 4, 8, 9), (0, 3))
        rows = {space.random_plan(rng): 0.0 for _ in range(25)}
        table = make_table(space, rows)
        scales = (space.scale, (1.0, 0.01, 0.01, 0.01), (0.01, 1.0, 0.5, 0.0),
                  (0.0, 0.0, 0.01, 1.0))
        answers = set()
        for _ in range(40):
            plan = space.random_plan(rng)
            for scale in scales:
                found = table.nearest(plan, scale)
                assert found == brute_force_nearest(rows, plan, scale)
                answers.add((plan, found))
        assert len(answers) > 40


class TestSynthLandscape:
    def test_deterministic(self):
        a1, b1 = synth_landscape(n_options=3, domain_size=4, n_peaks=3, noise_seed=5)
        a2, b2 = synth_landscape(n_options=3, domain_size=4, n_peaks=3, noise_seed=5)
        assert a1.rows == a2.rows
        assert b1.rows == b2.rows

    def test_different_seeds_differ(self):
        a1, _ = synth_landscape(n_options=3, domain_size=4, n_peaks=3, noise_seed=5)
        a2, _ = synth_landscape(n_options=3, domain_size=4, n_peaks=3, noise_seed=6)
        assert a1.rows != a2.rows

    def test_shared_space_and_direction(self):
        ta, tb = synth_landscape(n_options=3, domain_size=4, n_peaks=3)
        assert set(ta.rows) == set(tb.rows)
        assert ta.environment.direction == "minimize"
        assert ta.implied_space() == tb.implied_space()

    def test_two_peaks_optimum_shift(self):
        ta, tb = synth_landscape(n_options=3, domain_size=5, n_peaks=2, noise_seed=1)
        argmin_a = min(ta.rows, key=ta.rows.get)
        argmin_b = min(tb.rows, key=tb.rows.get)
        assert argmin_a != argmin_b
        # Brute-force neighbor scan, written here independently: one step in
        # one option. Environment A's best plan must still be a local optimum
        # of environment B, just not its global one.
        domain = sorted({p[0] for p in ta.rows})
        for q in _one_step_neighbors(argmin_a, domain):
            assert tb.rows[q] > tb.rows[argmin_a]

    @pytest.mark.parametrize("width", range(1, 21))
    def test_row_sum_adds_in_numpys_row_order(self, width):
        """Summed as columns, the squared-distance terms give the bits
        ``ndarray.sum(axis=1)`` gives: past 8 columns numpy adds pairwise, so
        a plain left-to-right sum would differ in the last bit."""
        rng = np.random.default_rng(width)
        rows = rng.random((2000, width)) * 10.0 ** rng.integers(-8, 8, (2000, width))
        before = rows.tobytes()
        got = twin_module._row_sum(list(rows.T))
        assert got.tobytes() == rows.sum(axis=1).tobytes()
        # An input may be a table's cached term, so no add may write to one.
        assert rows.tobytes() == before
        # Broadcast terms sum to the grid the full matrix's rows give.
        grids = [rng.random(3).reshape((1,) * j + (3,) + (1,) * (width - 1 - j))
                 for j in range(min(width, 10))]
        before = [grid.tobytes() for grid in grids]
        full = np.stack(np.broadcast_arrays(*grids), axis=-1).reshape(-1, len(grids))
        assert twin_module._row_sum(grids).reshape(-1).tobytes() == full.sum(axis=1).tobytes()
        assert [grid.tobytes() for grid in grids] == before

    @pytest.mark.parametrize("shape, message", [
        ({"n_options": 0}, "--options must be at least 1, got 0"),
        ({"n_options": -1}, "--options must be at least 1, got -1"),
        ({"domain_size": 1}, "--domain-size must be at least 2, got 1"),
        ({"domain_size": -3, "n_options": 2}, "--domain-size must be at least 2, got -3"),
        ({"n_options": 20}, "--options 20 with --domain-size 5 make more than the 1,048,576 "
                            "plans a landscape may have"),
        ({"n_options": 10**9, "domain_size": 2}, "--options 1000000000 with --domain-size 2"),
        # 1,185,921 plans: a guard that let this through would be slow, not
        # out of memory.
        ({"n_options": 4, "domain_size": 33, "n_peaks": 2}, "--options 4 with --domain-size 33"),
        # 17 x 2**20 distances, over the limit by a sixteenth: a guard that
        # let this through would be slow, not out of memory.
        ({"n_options": 4, "domain_size": 32, "n_peaks": 17},
         "--peaks 17 over 1,048,576 plans make more than the 16,777,216 plan-to-peak "
         "distances a landscape may have"),
        ({"n_peaks": 1}, "--peaks must be at least 2, got 1"),
        ({"n_peaks": 0}, "--peaks must be at least 2, got 0"),
        ({"n_peaks": -3}, "--peaks must be at least 2, got -3"),
        ({"n_options": 2, "domain_size": 2, "n_peaks": 5},
         "--peaks 5 is more than the 4 plans of --options 2 with --domain-size 2"),
        ({"n_options": 3, "domain_size": 4, "n_peaks": 3, "peak_shift": 3},
         "--peak-shift 3 must not be a multiple of --peaks 3"),
        ({"peak_shift": 40}, "--peak-shift 40 must not be a multiple of --peaks 40"),
        ({"peak_shift": 0}, "--peak-shift 0 must not be a multiple of --peaks 40"),
    ], ids=["no-options", "negative-options", "one-value", "negative-values", "20-options",
            "1e9-options", "over-the-plan-limit", "over-the-distance-limit", "one-peak",
            "no-peaks", "negative-peaks", "more-peaks-than-plans", "identity-shift",
            "shift-of-all-peaks", "no-shift"])
    def test_bad_shape_refused_by_flag(self, shape, message):
        with pytest.raises(ValueError) as exc:
            synth_landscape(**shape)
        assert str(exc.value).startswith(message)

    def test_plan_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(twin_module, "SYNTH_MAX_PLANS", 64)
        table, _ = synth_landscape(n_options=3, domain_size=4, n_peaks=3)
        assert len(table) == 64
        with pytest.raises(ValueError, match="more than the 64 plans"):
            synth_landscape(n_options=2, domain_size=9, n_peaks=3)

    def test_distance_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(twin_module, "SYNTH_MAX_DISTANCES", 64 * 3)
        table, _ = synth_landscape(n_options=3, domain_size=4, n_peaks=3)
        assert len(table) == 64
        with pytest.raises(ValueError, match="more than the 192 plan-to-peak distances"):
            synth_landscape(n_options=3, domain_size=4, n_peaks=4)


def _one_step_neighbors(plan, domain):
    out = []
    for i, v in enumerate(plan):
        pos = domain.index(v)
        if pos > 0:
            out.append(plan[:i] + (domain[pos - 1],) + plan[i + 1 :])
        if pos + 1 < len(domain):
            out.append(plan[:i] + (domain[pos + 1],) + plan[i + 1 :])
    return out


class TestCyberTwinConstruction:
    def test_duplicate_environment_ids(self):
        space = make_space((0, 1))
        t1 = make_table(space, {(0,): 1.0})
        t2 = make_table(space, {(1,): 2.0})
        with pytest.raises(ValueError, match="duplicate environment"):
            CyberTwin(space, [t1, t2])

    def test_plan_outside_space_rejected(self):
        space = make_space((0, 1))
        bad = make_table(make_space((0, 1, 2)), {(2,): 1.0})
        with pytest.raises(ValueError, match="outside the config space"):
            CyberTwin(space, [bad])

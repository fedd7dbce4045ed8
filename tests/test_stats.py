from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from scipy.stats import rankdata

import lidos.stats as stats_module
from lidos.planner import RunTrace
from lidos.stats import (
    _doubled_midranks,
    a12,
    quartiles,
    scott_knott,
    speedup,
    split_delta,
    summarize,
    wilcoxon_rank_sum,
)

from conftest import reference_bootstrap_rejects, sum_in_order


def exact_rank_sum_p(xs, ys):
    """Independent oracle: enumerate every assignment of the combined midranks."""
    combined = list(xs) + list(ys)
    ranks = rankdata(combined)
    n1 = len(xs)
    mu = n1 * (len(combined) + 1) / 2.0
    observed = abs(sum(ranks[:n1]) - mu)
    extreme = total = 0
    for combo in itertools.combinations(range(len(combined)), n1):
        total += 1
        if abs(sum(ranks[i] for i in combo) - mu) >= observed - 1e-9:
            extreme += 1
    return extreme / total


class TestWilcoxon:
    def test_identical_multisets(self):
        assert wilcoxon_rank_sum([3, 1, 2], [1, 2, 3]) == 1.0

    def test_disjoint_small_samples(self):
        p = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert abs(p - 0.1) < 1e-12  # 2 of the 20 rank assignments are as extreme

    def test_matches_enumeration_oracle(self):
        rng = random.Random(100)
        for _ in range(60):
            n1 = rng.randint(1, 8)
            n2 = rng.randint(1, 9 - n1 if n1 < 9 else 1)
            pool = [0, 1, 2, 5]  # heavy ties on purpose
            xs = [rng.choice(pool) for _ in range(n1)]
            ys = [rng.choice(pool) for _ in range(n2)]
            assert wilcoxon_rank_sum(xs, ys) == pytest.approx(
                exact_rank_sum_p(xs, ys), abs=1e-6
            )

    def test_monotone_transform_invariance(self):
        rng = random.Random(5)
        xs = [rng.uniform(0, 10) for _ in range(12)]
        ys = [rng.uniform(2, 12) for _ in range(9)]
        p1 = wilcoxon_rank_sum(xs, ys)
        p2 = wilcoxon_rank_sum([math.exp(x) for x in xs], [math.exp(y) for y in ys])
        assert p1 == p2

    def test_large_sample_null_calibration(self):
        quiet = 0
        for trial in range(100):
            rng = random.Random(trial)
            xs = [rng.gauss(0, 1) for _ in range(50)]
            ys = [rng.gauss(0, 1) for _ in range(50)]
            if wilcoxon_rank_sum(xs, ys) > 0.05:
                quiet += 1
        assert quiet >= 90

    def test_large_sample_detects_separation(self):
        rng = random.Random(0)
        xs = [rng.gauss(0, 1) for _ in range(50)]
        ys = [rng.gauss(2, 1) for _ in range(50)]
        assert wilcoxon_rank_sum(xs, ys) < 0.001

    def test_degenerate_constant_samples(self):
        assert wilcoxon_rank_sum([4.0] * 60, [4.0] * 60) == 1.0

    def test_large_tie_free_samples_match_scipy(self):
        # Without ties the correction term vanishes, so the approximation must
        # agree with scipy's rank-sum z-test.
        from scipy.stats import ranksums

        rng = random.Random(77)
        for _ in range(20):
            xs = [rng.uniform(0, 1) for _ in range(40)]
            ys = [rng.uniform(0.2, 1.2) for _ in range(35)]
            assert wilcoxon_rank_sum(xs, ys) == pytest.approx(
                ranksums(xs, ys).pvalue, abs=1e-10
            )

    def test_large_tied_samples_match_scipy_asymptotic(self):
        # With ties the variance takes the tie term of every group of equal
        # values, both zeros in one group, as scipy's asymptotic test does.
        from scipy.stats import mannwhitneyu

        rng = random.Random(78)
        for _ in range(20):
            xs = [rng.choice((0.0, -0.0, 1.0, 2.0, 2.5)) for _ in range(rng.randint(20, 50))]
            ys = [rng.choice((-0.0, 1.0, 2.0, 3.0)) for _ in range(rng.randint(20, 50))]
            want = mannwhitneyu(xs, ys, method="asymptotic", use_continuity=False).pvalue
            assert wilcoxon_rank_sum(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_small_tie_free_samples_match_scipy_exact(self):
        from scipy.stats import mannwhitneyu

        rng = random.Random(31)
        for _ in range(40):
            n1, n2 = rng.randint(1, 10), rng.randint(1, 10)
            xs = [rng.uniform(0, 1) for _ in range(n1)]
            ys = [rng.uniform(0.1, 1.1) for _ in range(n2)]
            assert wilcoxon_rank_sum(xs, ys) == pytest.approx(
                mannwhitneyu(xs, ys, method="exact").pvalue, abs=1e-12
            )

    def test_exact_path_at_its_limit(self):
        # C(20, 10) = 184,756 splits, the largest exact case the benchmark
        # runs; the smaller side may be either sample.
        rng = random.Random(8)
        xs = [rng.choice((0, 1, 1, 2, 4)) for _ in range(10)]
        ys = [rng.choice((0, 1, 2, 3, 4)) for _ in range(10)]
        assert wilcoxon_rank_sum(xs, ys) == exact_rank_sum_p(xs, ys)
        assert wilcoxon_rank_sum(xs[:3], ys + xs[3:]) == exact_rank_sum_p(xs[:3], ys + xs[3:])
        assert wilcoxon_rank_sum(ys + xs[3:], xs[:3]) == exact_rank_sum_p(ys + xs[3:], xs[:3])

    def test_unbalanced_exact_samples(self):
        # One side of 1 or 2 values against many: the exact path's rows of
        # sums are as wide as the pooled ranks allow.
        rng = random.Random(14)
        for n1, n2 in ((1, 80), (80, 1), (2, 120)):
            xs = [rng.choice((0.0, -0.0, 1.0, 3.0)) for _ in range(n1)]
            ys = [rng.choice((0.0, -0.0, 1.0, 2.0)) for _ in range(n2)]
            assert wilcoxon_rank_sum(xs, ys) == pytest.approx(
                exact_rank_sum_p(xs, ys), abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])


class TestDoubledMidranks:
    def test_matches_scipy_rankdata(self):
        """Twice scipy's average ranks, on tie-heavy samples that hold both
        zeros, which compare equal and share a rank."""
        rng = random.Random(21)
        for _ in range(300):
            values = [rng.choice((0.0, -0.0, 1.0, -2.5, 7.0)) for _ in range(rng.randint(1, 60))]
            doubled, sizes = _doubled_midranks(values)
            assert doubled.tolist() == (2 * rankdata(values)).astype(int).tolist()
            assert sorted(sizes.tolist()) == sorted(
                values.count(v) for v in set(values))


class TestA12:
    def test_identical_samples(self):
        assert a12([1, 2, 3], [1, 2, 3]) == 0.5

    def test_total_separation(self):
        assert a12([1, 2], [3, 4]) == 1.0
        assert a12([3, 4], [1, 2]) == 0.0

    def test_hand_example(self):
        assert a12([1, 2], [1, 3]) == 0.625

    def test_pairwise_counting_oracle(self):
        rng = random.Random(8)
        for _ in range(50):
            xs = [rng.randint(0, 5) for _ in range(rng.randint(1, 12))]
            ys = [rng.randint(0, 5) for _ in range(rng.randint(1, 12))]
            wins = sum(1 for x in xs for y in ys if x < y)
            ties = sum(1 for x in xs for y in ys if x == y)
            expected = (wins + 0.5 * ties) / (len(xs) * len(ys))
            assert a12(xs, ys) == expected

    def test_complement_identity(self):
        rng = random.Random(9)
        for _ in range(50):
            xs = [rng.uniform(0, 3) for _ in range(6)]
            ys = [rng.uniform(0, 3) for _ in range(7)]
            assert a12(xs, ys) + a12(ys, xs) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        xs, ys = [1.0, 2.0, 5.0], [2.0, 4.0]
        assert a12(xs, ys) == a12([7 * x for x in xs], [7 * y for y in ys])

    def test_numpy_arrays_accepted(self):
        """The empty-sample check used to take an array's truth value, so an
        array of two or more values raised numpy's "ambiguous" error."""
        assert a12(np.array([1.0, 2.0]), np.array([3.0])) == 1.0
        assert type(a12(np.array([1.0, 2.0]), np.array([2.0]))) is float
        assert a12(np.array([3.0, 1.0]), [1.0, 3.0]) == a12([3.0, 1.0], [1.0, 3.0]) == 0.5
        with pytest.raises(ValueError, match="both samples must be non-empty"):
            a12(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError, match="both samples must be non-empty"):
            a12([1.0], [])


class TestSplitDelta:
    def test_hand_arithmetic(self):
        assert split_delta([1, 1], [5, 5]) == 4.0

    def test_no_separation_is_zero(self):
        assert split_delta([2, 2], [2, 2]) == 0.0

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            split_delta([], [1])


class TestScottKnott:
    def test_constant_groups_two_ranks(self):
        ranks = scott_knott({"p": [0.0] * 10, "q": [0.0] * 10, "r": [5.0] * 10},
                            random.Random(0))
        assert ranks == {"p": 1, "q": 1, "r": 2}

    def test_identical_distributions_share_rank(self):
        rng = random.Random(2)
        a = [rng.gauss(0, 1) for _ in range(30)]
        b = [rng.gauss(0, 1) for _ in range(30)]
        assert scott_knott({"a": a, "b": b}, random.Random(0)) == {"a": 1, "b": 1}

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        samples = {
            "x": [rng.gauss(0, 0.5) for _ in range(25)],
            "y": [rng.gauss(4, 0.5) for _ in range(25)],
            "z": [rng.gauss(8, 0.5) for _ in range(25)],
        }
        forward = scott_knott(samples, random.Random(0))
        shuffled = scott_knott(dict(reversed(list(samples.items()))), random.Random(0))
        assert forward == shuffled

    def test_maximize_direction_ranks_high_first(self):
        # Maximized values enter negated, as the twin makes them canonical.
        ranks = scott_knott({"low": [-1.0] * 10, "high": [-9.0] * 10}, random.Random(0))
        assert ranks == {"high": 1, "low": 2}

    def test_entries_sorted_by_rank_then_median(self):
        rng = random.Random(4)
        ranks = scott_knott({
            "worst": [rng.gauss(9, 0.1) for _ in range(20)],
            "best": [rng.gauss(0, 0.1) for _ in range(20)],
            "mid": [rng.gauss(5, 0.1) for _ in range(20)],
        }, random.Random(0))
        assert ranks == {"best": 1, "mid": 2, "worst": 3}

    def test_lone_planner_gets_rank_one(self):
        rng = random.Random(6)
        draws = rng.getstate()
        assert scott_knott({"a": [1.0, 2.0]}, rng) == {"a": 1}
        assert rng.getstate() == draws  # nothing to split, nothing drawn


def compensated_sum(values, start=0):
    """The builtin `sum()` of CPython 3.12 and later: ints added exactly,
    floats with Neumaier's compensation, which 3.11 does not make."""
    values = list(values)
    if all(isinstance(value, int) for value in values):
        return sum_in_order([start, *values])
    total, compensation = float(start), 0.0
    for value in map(float, values):
        added = total + value
        if abs(total) >= abs(value):
            compensation += (total - added) + value
        else:
            compensation += (value - added) + total
        total = added
    return total + compensation if compensation and math.isfinite(compensation) else total


class TestAddingOrder:
    """The statistics add in order, as the builtin `sum()` does up to
    CPython 3.11, under any Python: a compensated `sum()` put into
    `lidos.stats` changes neither a split's gain nor a rank."""

    def test_a_compensated_sum_changes_nothing(self, monkeypatch):
        cancelling = [1e16, 1.0, -1e16, 2.0]
        assert (sum_in_order(cancelling), compensated_sum(cancelling)) == (2.0, 3.0)
        # Three labels whose two candidate splits gain the same but for the
        # last bit, which a compensated sum turns the other way.
        middle = [0.3, -0.3, 0.9, -0.9]
        samples = {"a": [v - 1.3 for v in middle], "b": middle,
                   "c": [v + 1.3 for v in middle]}
        monkeypatch.setattr(stats_module, "sum", compensated_sum, raising=False)
        assert repr(split_delta(cancelling[:2], cancelling[2:])) == "2.5e+31"
        assert scott_knott(samples, random.Random(0)) == {"a": 1, "b": 1, "c": 2}


def bootstrap_cases(count: int, seed: int):
    """(left, right) pairs of 1-40 values a side: spread values, a small shift
    that puts some verdicts near the threshold, and tie-heavy draws from three
    values."""
    rng = random.Random(seed)
    for case in range(count):
        sizes = rng.randint(1, 40), rng.randint(1, 40)
        if case % 3 == 2:
            grid = [rng.randint(-3, 3) * 0.25 for _ in range(3)]
            yield tuple([rng.choice(grid) for _ in range(size)] for size in sizes)
        else:
            shift = rng.uniform(0.0, 1.5)
            yield ([rng.gauss(0.0, 1.0) for _ in range(sizes[0])],
                   [rng.gauss(shift, 1.0) for _ in range(sizes[1])])


class TestBootstrap:
    """The block-drawn bootstrap makes the draws, sums and verdicts of the
    one-`Random.choice`-at-a-time loop, and leaves the generator where the
    loop leaves it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 64, 65, 200])
    def test_choice_indices_are_the_choice_draws(self, n):
        ours, theirs = random.Random(n), random.Random(n)
        picks = stats_module._choice_indices(ours, n, 3000)
        assert picks.tolist() == [theirs.choice(range(n)) for _ in range(3000)]
        assert ours.getstate() == theirs.getstate()

    def test_verdict_and_state_match_the_loop(self):
        verdicts = set()
        for left, right in bootstrap_cases(90, seed=8):
            ours, theirs = random.Random(len(left)), random.Random(len(left))
            verdict = stats_module._bootstrap_rejects(left, right, ours)
            assert verdict == reference_bootstrap_rejects(left, right, theirs), (left, right)
            assert ours.getstate() == theirs.getstate()
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_scott_knott_ranks_and_draws_match_the_loop(self, monkeypatch):
        rng = random.Random(12)
        cases = [{label: [rng.gauss(shift, 1.0) for _ in range(rng.randint(5, 30))]
                  for label, shift in zip("abcd", sorted(rng.uniform(0, 4) for _ in "abcd"))}
                 for _ in range(8)]

        def ranked(samples):
            draws = random.Random(1)
            return scott_knott(samples, draws), draws.getstate()

        ours = [ranked(samples) for samples in cases]
        assert len({len(set(ranks.values())) for ranks, _ in ours}) > 1
        monkeypatch.setattr(stats_module, "_bootstrap_rejects", reference_bootstrap_rejects)
        assert [ranked(samples) for samples in cases] == ours


class TestQuartiles:
    """`quartiles` is three separate `np.percentile` calls: one call for all
    three q gives q75 = -0.0 on the first sample below, where separate calls
    give 0.0."""

    @staticmethod
    def separate_calls(values):
        return tuple(float(np.percentile(np.asarray(values, dtype=float), q))
                     for q in (25, 50, 75))

    def test_signed_zeros(self):
        for values in ([0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 0.0], [-0.0], [0.0, -0.0],
                       [-0.0, -0.0, 0.0, 1.0]):
            assert repr(quartiles(values)) == repr(self.separate_calls(values))

    def test_matches_separate_percentile_calls(self):
        rng = random.Random(22)
        for case in range(3000):
            n = rng.randint(1, 60)
            if case % 2:
                values = [rng.choice((0.0, -0.0, 0.5, -1e-300, 3e12)) for _ in range(n)]
            else:
                values = [round(rng.gauss(0, 1), rng.randint(0, 3)) for _ in range(n)]
            assert repr(quartiles(values)) == repr(self.separate_calls(values)), values

    def test_returns_floats(self):
        assert quartiles(np.array([1, 2, 3, 4])) == (1.75, 2.5, 3.25)
        assert all(type(q) is float for q in quartiles([1, 2]))


class TestSummarize:
    def test_even_median_midpoint(self):
        out = summarize({"g": [1, 2, 3, 4]})
        assert out["g"].median == 2.5

    def test_singleton(self):
        out = summarize({"g": [5]})
        assert out["g"].median == 5.0
        assert out["g"].iqr == 0.0

    def test_iqr_linear_interpolation(self):
        out = summarize({"g": [1, 2, 3, 4, 5, 6, 7, 8]})
        assert out["g"].iqr == pytest.approx(6.25 - 2.75, abs=1e-12)


def synthetic_trace(post_change_fts, pre_change_fts=(10.0,), env=("A", "B")):
    trace = RunTrace()
    index = 0
    best = math.inf
    for ft in pre_change_fts:
        index += 1
        best = min(best, ft)
        trace.record(index, env[0], ft, best)
    trace.record(index, env[1], env_change=True)
    best = math.inf
    for ft in post_change_fts:
        index += 1
        best = min(best, ft)
        trace.record(index, env[1], ft, best)
    return trace


class TestSpeedup:
    def test_hand_arithmetic(self):
        # Baseline first attains its post-change best (10) at position 100;
        # the other trace attains <= 10 already at position 20.
        base = synthetic_trace([50.0] * 99 + [10.0] + [30.0] * 50)
        fast = synthetic_trace([40.0] * 19 + [9.0] + [35.0] * 130)
        assert speedup(base, fast) == 5.0

    def test_identical_traces(self):
        trace = synthetic_trace([30.0, 20.0, 25.0, 15.0, 18.0])
        assert speedup(trace, trace) == 1.0

    def test_unreachable_target_is_infinite(self):
        base = synthetic_trace([5.0, 1.0])
        slow = synthetic_trace([9.0, 8.0, 7.0])
        assert speedup(base, slow) == math.inf

    def test_requires_change_marker(self):
        trace = RunTrace()
        trace.record(1, "A", 1.0, 1.0)
        other = synthetic_trace([1.0])
        with pytest.raises(ValueError, match="change marker"):
            speedup(trace, other)

    def test_empty_post_change_segment(self):
        empty = synthetic_trace([])
        other = synthetic_trace([1.0])
        with pytest.raises(ValueError, match="empty post-change"):
            speedup(empty, other)

    def test_first_attainment_counts(self):
        base = synthetic_trace([7.0, 3.0, 3.0, 3.0])
        other = synthetic_trace([3.0, 9.0, 9.0, 9.0])
        assert speedup(base, other) == 2.0


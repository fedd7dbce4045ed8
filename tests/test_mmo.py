from __future__ import annotations

import math
import random

import pytest

from lidos.mmo import (
    ScoredPlan,
    assign_auxiliary,
    crowding_distance,
    environmental_selection,
    nondominated_sort,
    transform,
)

from conftest import dominates, make_space, reference_auxiliary, squared_distance


def scored(g1, g2):
    s = ScoredPlan(plan=(0,), ft=0.0, fa=0.0)
    s.g1, s.g2 = g1, g2
    return s


class TestAssignAuxiliary:
    def test_forced_pair(self):
        space = make_space((0, 1))
        pool = [ScoredPlan((0,), ft=5.0), ScoredPlan((1,), ft=9.0)]
        assign_auxiliary(pool, space)
        assert pool[0].fa == 9.0
        assert pool[1].fa == 5.0

    def test_most_dissimilar_among_equidistant(self):
        space = make_space((0, 1, 2))
        s = ScoredPlan((1,), ft=5.0)
        pool = [s, ScoredPlan((0,), ft=4.0), ScoredPlan((2,), ft=10.0)]
        assign_auxiliary(pool, space)
        assert s.fa == 10.0  # |10-5| beats |4-5|

    def test_duplicate_plan_forms_neighborhood_alone(self):
        space = make_space((0, 1))
        s = ScoredPlan((0,), ft=5.0)
        dup = ScoredPlan((0,), ft=5.0)
        far = ScoredPlan((1,), ft=9.0)
        assign_auxiliary([s, dup, far], space)
        assert s.fa == 5.0
        assert dup.fa == 5.0

    def test_tie_on_difference_breaks_lexicographically(self):
        space = make_space((0, 1, 2), (0, 1))
        s = ScoredPlan((1, 0), ft=5.0)
        lo = ScoredPlan((0, 0), ft=8.0)
        hi = ScoredPlan((2, 0), ft=2.0)  # same |diff| = 3, higher plan is (2, 0)
        assign_auxiliary([s, lo, hi], space)
        assert s.fa == 8.0

    def test_pool_too_small(self):
        space = make_space((0, 1))
        with pytest.raises(ValueError, match="at least 2"):
            assign_auxiliary([ScoredPlan((0,), ft=1.0)], space)

    def test_donor_always_at_minimal_distance(self):
        space = make_space((0, 1, 2, 3), (0, 1, 2, 3))
        rng = random.Random(11)
        for _ in range(50):
            pool = [
                ScoredPlan(space.random_plan(rng), ft=rng.random())
                for _ in range(8)
            ]
            assign_auxiliary(pool, space)
            for s in pool:
                others = [p for p in pool if p is not s]
                dmin = min(squared_distance(space, s.plan, p.plan) for p in others)
                donors = {
                    p.ft
                    for p in others
                    if squared_distance(space, s.plan, p.plan) == dmin
                }
                assert s.fa in donors

    def test_matches_member_by_member_oracle(self):
        # Grid target values and a handful of distinct plans make ties on
        # distance and on |ft difference| the rule, not the exception;
        # single-value options have zero span. The pools of 80 over five
        # options of span 5 hold distances that 1/5 cannot scale exactly, so
        # a float distance could split a true tie.
        rng = random.Random(2022)
        cases = []
        for _ in range(10_000):
            domains = [tuple(sorted(rng.sample(range(9), rng.randint(1, 4))))
                       for _ in range(rng.randint(1, 4))]
            space = make_space(*domains)
            plans = [space.random_plan(rng) for _ in range(rng.randint(1, 12))]
            cases.append((space, [ScoredPlan(rng.choice(plans), ft=rng.randint(-3, 3) * 0.5)
                                  for _ in range(rng.randint(2, 40))]))
        span_five = make_space(*(tuple(range(6)),) * 5)
        for _ in range(20):
            cases.append((span_five, [ScoredPlan(span_five.random_plan(rng),
                                                 ft=rng.randint(-3, 3) * 0.5)
                                      for _ in range(80)]))
        # Four options times L = lcm(span**2) pass 2**63 only between the two
        # far corners, whose int64 distance would wrap.
        spans = (107, 169, 217, 387)
        corners = make_space(*((0, 1, s // 2, s - 1, s) for s in spans))
        for _ in range(5):
            plans = [(0, 0, 0, 0), spans] + [corners.random_plan(rng) for _ in range(18)]
            cases.append((corners, [ScoredPlan(plan, ft=rng.randint(-3, 3) * 0.5)
                                    for plan in plans]))
        for space, pool in cases:
            want = reference_auxiliary(pool, space)
            assert assign_auxiliary(pool, space) is None
            assert [s.fa for s in pool] == want


class TestTransform:
    def test_direct_substitution(self):
        s = transform(ScoredPlan((0,), ft=5.0, fa=3.0))
        assert (s.g1, s.g2) == (8.0, 2.0)

    def test_zero_auxiliary(self):
        s = transform(ScoredPlan((0,), ft=4.0, fa=0.0))
        assert s.g1 == s.g2 == 4.0

    def test_equal_components(self):
        s = transform(ScoredPlan((0,), ft=10.0, fa=10.0))
        assert (s.g1, s.g2) == (20.0, 0.0)

    def test_unset_auxiliary(self):
        with pytest.raises(ValueError):
            transform(ScoredPlan((0,), ft=1.0))

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(500):
            ft, fa = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
            s = transform(ScoredPlan((0,), ft=ft, fa=fa))
            assert abs((s.g1 + s.g2) / 2 - ft) <= 1e-12 * max(1.0, abs(ft))
            assert abs((s.g1 - s.g2) / 2 - fa) <= 1e-12 * max(1.0, abs(fa))


class TestDominates:
    def test_strict(self):
        assert dominates(scored(8, 2), scored(9, 3)) is True

    def test_equal_is_not_dominance(self):
        assert dominates(scored(8, 2), scored(8, 2)) is False

    def test_incomparable(self):
        assert dominates(scored(8, 2), scored(7, 3)) is False

    def test_weak_on_one_objective(self):
        assert dominates(scored(8, 2), scored(8, 3)) is True

    def test_better_target_never_dominated(self):
        rng = random.Random(21)
        for _ in range(2000):
            ft1 = rng.uniform(-100, 100)
            ft2 = ft1 + rng.uniform(1e-9, 100)
            s1 = transform(ScoredPlan((0,), ft=ft1, fa=rng.uniform(-100, 100)))
            s2 = transform(ScoredPlan((1,), ft=ft2, fa=rng.uniform(-100, 100)))
            assert not dominates(s2, s1)


def brute_force_fronts(pool):
    """Definition-based oracle: repeatedly peel the nondominated set."""
    remaining = list(pool)
    fronts = []
    while remaining:
        front = [
            a
            for a in remaining
            if not any(dominates(b, a) for b in remaining if b is not a)
        ]
        fronts.append(front)
        remaining = [a for a in remaining if a not in front]
    return fronts


class TestNondominatedSort:
    def test_hand_example(self):
        a, b, c = scored(1, 1), scored(2, 2), scored(0, 3)
        fronts = nondominated_sort([a, b, c])
        assert [set(map(id, f)) for f in fronts] == [{id(a), id(c)}, {id(b)}]
        assert (a.rank, c.rank, b.rank) == (0, 0, 1)

    def test_single_plan(self):
        fronts = nondominated_sort([scored(1, 1)])
        assert len(fronts) == 1

    def test_all_incomparable(self):
        pool = [scored(i, 10 - i) for i in range(5)]
        fronts = nondominated_sort(pool)
        assert len(fronts) == 1
        assert len(fronts[0]) == 5

    def test_matches_oracle_on_random_pools(self):
        rng = random.Random(77)
        for _ in range(100):
            pool = [
                transform(ScoredPlan((i,), ft=rng.uniform(0, 10), fa=rng.choice([0, 1, 2.5])))
                for i in range(rng.randint(1, 30))
            ]
            got = nondominated_sort(pool)
            want = brute_force_fronts(pool)
            assert [set(map(id, f)) for f in got] == [
                set(map(id, f)) for f in want
            ]


class TestCrowdingDistance:
    def test_small_fronts_all_infinite(self):
        one = [scored(1, 1)]
        crowding_distance(one)
        assert one[0].crowding == math.inf
        two = [scored(1, 2), scored(2, 1)]
        crowding_distance(two)
        assert all(m.crowding == math.inf for m in two)

    def test_equally_spaced_middle(self):
        mid = scored(1, 1)
        front = [scored(0, 0), mid, scored(2, 2)]
        crowding_distance(front)
        assert mid.crowding == 2.0

    def test_identical_values_two_boundaries(self):
        members = [scored(3, 3) for _ in range(5)]
        crowding_distance(members)
        infinities = [m for m in members if m.crowding == math.inf]
        zeros = [m for m in members if m.crowding == 0.0]
        assert len(infinities) == 2
        assert len(zeros) == 3

    def test_empty_front(self):
        with pytest.raises(ValueError):
            crowding_distance([])


def reference_selection(union, n):
    """Brute-force reference: peel fronts by definition, truncate the split
    front by recomputed crowding distance with insertion-order ties."""
    survivors = []
    for front in brute_force_fronts(union):
        crowding_distance(front)
        if len(survivors) + len(front) <= n:
            survivors.extend(front)
        else:
            by_crowd = sorted(front, key=lambda m: -m.crowding)
            survivors.extend(by_crowd[: n - len(survivors)])
            break
    return survivors


class TestEnvironmentalSelection:
    def test_identity_when_sizes_match(self):
        union = [scored(i, 5 - i) for i in range(4)]
        assert set(map(id, environmental_selection(union, 4))) == set(map(id, union))

    def test_keeps_exactly_the_nondominated_set(self):
        good = [scored(i, 3 - i) for i in range(4)]
        bad = [scored(9, 9), scored(8, 8)]
        picked = environmental_selection(good + bad, 4)
        assert set(map(id, picked)) == set(map(id, good))

    def test_split_front_keeps_boundaries(self):
        a, b, c, d = scored(0, 3), scored(1, 2), scored(2, 1), scored(3, 0)
        picked = environmental_selection([a, b, c, d], 3)
        ids = set(map(id, picked))
        assert id(a) in ids and id(d) in ids
        assert id(b) in ids  # insertion order breaks the b/c crowding tie

    def test_invalid_population_size(self):
        with pytest.raises(ValueError):
            environmental_selection([scored(1, 1)], 0)

    def test_union_smaller_than_n(self):
        with pytest.raises(ValueError):
            environmental_selection([scored(1, 1)], 2)

    def test_matches_reference_on_random_unions(self):
        rng = random.Random(13)
        for _ in range(100):
            union = [
                transform(ScoredPlan((i,), ft=rng.uniform(0, 4), fa=rng.choice([0.0, 1.0, 2.0])))
                for i in range(rng.randint(2, 24))
            ]
            n = rng.randint(1, len(union))
            got = [id(m) for m in environmental_selection(union, n)]
            want = [id(m) for m in reference_selection(union, n)]
            assert sorted(got) == sorted(want)

    def test_order_matches_oracles_on_duplicate_heavy_grids(self):
        # Survivor order feeds the next tournament's draws, so fronts and
        # survivors must come out in the oracles' order, not merely hold the
        # same members; grid values make exact (g1, g2) duplicates common.
        rng = random.Random(29)
        for _ in range(300):
            grid = rng.randint(1, 4)
            union = [
                scored(rng.randint(0, grid) / 2, rng.randint(0, grid) / 2)
                for _ in range(rng.randint(1, 30))
            ]
            got = nondominated_sort(union)
            assert [list(map(id, f)) for f in got] == [
                list(map(id, f)) for f in brute_force_fronts(union)
            ]
            for rank, front in enumerate(got):
                assert all(m.rank == rank for m in front)
            n = rng.randint(1, len(union))
            got = [id(m) for m in environmental_selection(union, n)]
            want = [id(m) for m in reference_selection(union, n)]
            assert got == want


class TestPoolLevelProperties:
    def test_global_optimum_retention(self):
        space = make_space((0, 1, 2, 3), (0, 1, 2, 3), (0, 1))
        rng = random.Random(55)
        for _ in range(100):
            size = rng.randint(2, 40)
            pool = [
                ScoredPlan(space.random_plan(rng), ft=rng.random()) for _ in range(size)
            ]
            assign_auxiliary(pool, space)
            for s in pool:
                transform(s)
            best = min(pool, key=lambda s: s.ft)
            fronts = nondominated_sort(pool)
            assert any(best is m for m in fronts[0])

from __future__ import annotations

import math
import random

import pytest

from lidos.space import ConfigSpace, OptionSpec

from conftest import make_space, normalized_distance


class TestOptionSpec:
    def test_empty_domain(self):
        with pytest.raises(ValueError, match="empty"):
            OptionSpec("a", ())

    def test_unsorted_domain(self):
        with pytest.raises(ValueError, match="increasing"):
            OptionSpec("a", (3, 1, 2))

    def test_duplicate_value(self):
        with pytest.raises(ValueError, match="increasing"):
            OptionSpec("a", (1, 1, 2))


class TestConfigSpace:
    def test_duplicate_option_name(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConfigSpace((OptionSpec("a", (0, 1)), OptionSpec("a", (1, 2))))


class TestValidatePlan:
    def test_valid(self, binary_pair_space):
        assert binary_pair_space.validate_plan((0, 2)) is True

    def test_out_of_domain(self, binary_pair_space):
        assert binary_pair_space.validate_plan((2, 2)) is False

    def test_wrong_length(self, binary_pair_space):
        assert binary_pair_space.validate_plan((0,)) is False
        assert binary_pair_space.validate_plan((0, 2, 1)) is False


class TestRandomPlan:
    def test_forced_single_value(self):
        space = make_space((5,))
        assert space.random_plan(random.Random(0)) == (5,)

    def test_deterministic_given_seed(self):
        space = make_space((0, 1), (0, 1))
        plans_a = [space.random_plan(random.Random(7)) for _ in range(5)]
        plans_b = [space.random_plan(random.Random(7)) for _ in range(5)]
        # A fresh rng with the same seed reproduces the first draw.
        assert plans_a[0] == plans_b[0]
        rng1, rng2 = random.Random(3), random.Random(3)
        assert [space.random_plan(rng1) for _ in range(20)] == [
            space.random_plan(rng2) for _ in range(20)
        ]

    def test_binary_frequency(self):
        space = make_space((0, 1))
        rng = random.Random(12345)
        ones = sum(space.random_plan(rng)[0] for _ in range(10_000))
        assert abs(ones / 10_000 - 0.5) <= 0.02


class TestNormalizedDistance:
    def test_identity(self, binary_pair_space):
        assert normalized_distance(binary_pair_space, (0, 2), (0, 2)) == 0.0

    def test_single_binary_difference(self, binary_pair_space):
        assert normalized_distance(binary_pair_space, (0, 2), (1, 2)) == 1.0

    def test_hand_example(self):
        space = make_space((0, 1), (1, 3, 5))
        d = normalized_distance(space, (0, 1), (1, 3))
        assert abs(d - math.sqrt(1.0 + 0.25)) < 1e-12

    def test_invalid_plan_raises(self, binary_pair_space):
        with pytest.raises(ValueError):
            normalized_distance(binary_pair_space, (9, 2), (0, 2))

    def test_zero_span_option_contributes_nothing(self):
        space = make_space((7,), (0, 1))
        assert normalized_distance(space, (7, 0), (7, 1)) == 1.0

    def test_metric_properties(self):
        space = make_space((0, 1, 2), (0, 5, 9), (0, 1))
        rng = random.Random(99)
        for _ in range(200):
            a, b, c = (space.random_plan(rng) for _ in range(3))
            dab = normalized_distance(space, a, b)
            assert dab == normalized_distance(space, b, a)
            assert normalized_distance(space, a, a) == 0.0
            assert dab <= (
                normalized_distance(space, a, c) + normalized_distance(space, c, b) + 1e-12
            )

    def test_affine_rescaling_invariance(self):
        base = make_space((0, 1, 2, 5), (0, 1))
        scaled = make_space((10, 30, 50, 110), (3, 8))  # v -> 20v + 10 and v -> 5v + 3
        rng = random.Random(4)
        remap = {0: 10, 1: 30, 2: 50, 5: 110}
        for _ in range(100):
            a = base.random_plan(rng)
            b = base.random_plan(rng)
            a2 = (remap[a[0]], 3 + 5 * a[1])
            b2 = (remap[b[0]], 3 + 5 * b[1])
            assert normalized_distance(base, a, b) == pytest.approx(
                normalized_distance(scaled, a2, b2), abs=1e-12
            )

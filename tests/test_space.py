from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from lidos.space import ConfigSpace, OptionSpec

from conftest import make_space, squared_distance


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


def integer_distance(space: ConfigSpace, a, b) -> Fraction:
    """The space's integer distance of `a` and `b` over the L it is scaled
    by: every option of nonzero span has weight times span squared equal to
    L (1 when every span is zero)."""
    (scale,) = {w * o.span**2 for w, o in zip(space.weights, space.options) if o.span} or {1}
    return Fraction(sum(w * (x - y) ** 2 for w, x, y in zip(space.weights, a, b)), scale)


class TestNormalizedDistance:
    """`ConfigSpace.weights` give the span-normalized squared distance of the
    exact `squared_distance` helper."""

    def test_identity(self, binary_pair_space):
        assert integer_distance(binary_pair_space, (0, 2), (0, 2)) == 0
        assert squared_distance(binary_pair_space, (0, 2), (0, 2)) == 0

    def test_single_binary_difference(self, binary_pair_space):
        assert integer_distance(binary_pair_space, (0, 2), (1, 2)) == 1
        assert squared_distance(binary_pair_space, (0, 2), (1, 2)) == 1

    def test_hand_example(self):
        space = make_space((0, 1), (1, 3, 5))
        assert space.weights == (16, 1)
        assert integer_distance(space, (0, 1), (1, 3)) == Fraction(5, 4)
        assert squared_distance(space, (0, 1), (1, 3)) == Fraction(5, 4)

    def test_invalid_plan_raises(self, binary_pair_space):
        with pytest.raises(ValueError):
            squared_distance(binary_pair_space, (9, 2), (0, 2))

    def test_zero_span_option_contributes_nothing(self):
        space = make_space((7,), (0, 1))
        assert space.weights == (0, 1)
        assert integer_distance(space, (7, 0), (7, 1)) == 1
        assert squared_distance(space, (7, 0), (7, 1)) == 1
        assert make_space((7,), (3,)).weights == (0, 0)

    def test_least_integer_weights(self):
        # L is the least common multiple of the squared spans, not a multiple.
        for domains in (((0, 1, 2), (0, 5, 9), (0, 1)), ((0, 6), (0, 10), (0, 15)),
                        ((0, 4), (2, 6), (-3, 5))):
            weights = make_space(*domains).weights
            assert all(type(w) is int for w in weights)
            assert math.gcd(*weights) == 1

    def test_distance_dtype(self):
        assert make_space((0, 1, 2), (0, 5, 9)).distance_dtype == "int64"
        # Four options times L pass 2**63; so does a value.
        assert make_space((0, 107), (0, 169), (0, 217), (0, 387)).distance_dtype == "object"
        assert make_space((0, 1), (2**63, 2**63 + 1)).distance_dtype == "object"

    def test_metric_properties(self):
        space = make_space((0, 1, 2), (0, 5, 9), (0, 1))
        rng = random.Random(99)
        for _ in range(200):
            a, b, c = (space.random_plan(rng) for _ in range(3))
            dab = squared_distance(space, a, b)
            assert integer_distance(space, a, b) == dab
            assert dab == squared_distance(space, b, a)
            assert squared_distance(space, a, a) == 0
            # The triangle inequality on the square roots, squared out exactly.
            dac, dcb = squared_distance(space, a, c), squared_distance(space, c, b)
            excess = dab - dac - dcb
            assert excess <= 0 or excess**2 <= 4 * dac * dcb

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
            assert squared_distance(base, a, b) == squared_distance(scaled, a2, b2)
            assert integer_distance(base, a, b) == integer_distance(scaled, a2, b2)


class TestDifference:
    @pytest.mark.parametrize("options, difference", [
        ((("a", (0, 1)),), "option count 1 in 'B' but 2 in 'A'"),
        ((("a", (0, 1)), ("c", (0, 1)), ("b", (0,))), "option 2 is 'c' in 'B' but 'b' in 'A'"),
        ((("a", (0, 1)), ("b", (0, 1, 2, 3, 4, 9))), "option 'b' takes 9 only in 'B'"),
        ((("a", (0, 1)), ("b", (2, 5, 6, 7, 8))),
         "option 'b' takes 5, 6, 7, ... only in 'B' and 0, 1, 3, ... only in 'A'"),
    ], ids=["option-count", "option-name", "one-side", "both-sides"])
    def test_the_first_difference_is_named(self, options, difference):
        first = ConfigSpace((OptionSpec("a", (0, 1)), OptionSpec("b", (0, 1, 2, 3, 4))))
        other = ConfigSpace(tuple(OptionSpec(name, domain) for name, domain in options))
        assert first.difference(other, "A", "B") == difference
        with pytest.raises(ValueError, match="equal"):
            first.difference(first, "A", "B")

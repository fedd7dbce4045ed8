"""Adaptation-plan search space: options, plan validity, sampling."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

Plan = tuple[int, ...]


@dataclass(frozen=True)
class OptionSpec:
    """A single adaptation option with a finite, strictly increasing integer domain.

    Binary options are just the domain ``(0, 1)``.
    """

    name: str
    domain: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError(f"option {self.name!r} has an empty domain")
        if any(b <= a for a, b in zip(self.domain, self.domain[1:])):
            raise ValueError(
                f"option {self.name!r} domain must be strictly increasing, got {self.domain}"
            )

    @property
    def span(self) -> int:
        """Raw value range (max - min); zero for single-value domains."""
        return self.domain[-1] - self.domain[0]

    def contains(self, value: int) -> bool:
        i = bisect.bisect_left(self.domain, value)
        return i < len(self.domain) and self.domain[i] == value


@dataclass(frozen=True)
class ConfigSpace:
    """Ordered set of options; the search space is their Cartesian product."""

    options: tuple[OptionSpec, ...]
    # Derived from the options, in __post_init__.
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    distance_dtype: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.options:
            raise ValueError("a config space needs at least one option")
        names = [o.name for o in self.options]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate option name(s): {sorted(dupes)}")
        # Plan distances (repair, the auxiliary objective) are Euclidean after
        # rescaling every option to [0, 1] by its span, so wide integer options
        # cannot drown out binary ones; zero-span options contribute nothing.
        # Times L = lcm(span**2), a squared distance is the integer
        # sum_j weights[j] * (a_j - b_j)**2, with weights[j] = L // span_j**2
        # (0 for a zero span): exact in any summation order.
        lcm = math.lcm(*(o.span**2 for o in self.options if o.span))
        object.__setattr__(self, "weights", tuple(
            lcm // o.span**2 if o.span else 0 for o in self.options))
        # Two plans differ by at most L per option, so every distance fits the
        # numpy dtype `distance_dtype` "int64" when options x L does, with one
        # to spare, and every value does; otherwise it is "object" (Python ints).
        fits = len(self.options) * lcm < 2**63 - 1 and all(
            -(2**63) <= o.domain[0] and o.domain[-1] < 2**63 for o in self.options)
        object.__setattr__(self, "distance_dtype", "int64" if fits else "object")

    def difference(self, other: ConfigSpace, label: str, other_label: str) -> str:
        """Where `other`, a space unequal to this one, differs from it: the
        first option whose name differs, or the option counts, or else the
        first option whose domain differs, with up to three of the values
        only one side has; each space is named by its label."""
        names = [[option.name for option in s.options] for s in (self, other)]
        for j, (name, other_name) in enumerate(zip(*names)):
            if name != other_name:
                return f"option {j + 1} is {other_name!r} in {other_label!r} but {name!r} in {label!r}"
        if len(names[0]) != len(names[1]):
            return f"option count {len(names[1])} in {other_label!r} but {len(names[0])} in {label!r}"
        for option, other_option in zip(self.options, other.options):
            if option.domain != other_option.domain:
                sides = []
                for side, values, others in ((other_label, other_option.domain, option.domain),
                                             (label, option.domain, other_option.domain)):
                    if only := sorted(set(values) - set(others)):
                        sides.append(", ".join(map(str, only[:3])) + ", ..." * (len(only) > 3)
                                     + f" only in {side!r}")
                return f"option {option.name!r} takes " + " and ".join(sides)
        raise ValueError("the spaces are equal")

    def validate_plan(self, plan: Plan) -> bool:
        if len(plan) != len(self.options):
            return False
        return all(o.contains(v) for o, v in zip(self.options, plan))

    def random_plan(self, rng: random.Random) -> Plan:
        """Draw each value uniformly from its option's domain."""
        return tuple(rng.choice(o.domain) for o in self.options)

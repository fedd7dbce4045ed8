"""Adaptation-plan search space: options, plan validity, sampling."""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if not self.options:
            raise ValueError("a config space needs at least one option")
        names = [o.name for o in self.options]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate option name(s): {sorted(dupes)}")
        # Per-dimension scale 1/(max-min). Plan distances (repair, the
        # auxiliary objective) are Euclidean after this rescaling, so wide
        # integer options cannot drown out binary ones; zero-span options
        # contribute nothing.
        object.__setattr__(
            self,
            "_scale",
            tuple(1.0 / o.span if o.span else 0.0 for o in self.options),
        )

    @property
    def scale(self) -> tuple[float, ...]:
        return self._scale  # type: ignore[attr-defined]

    def validate_plan(self, plan: Plan) -> bool:
        if len(plan) != len(self.options):
            return False
        return all(o.contains(v) for o, v in zip(self.options, plan))

    def random_plan(self, rng: random.Random) -> Plan:
        """Draw each value uniformly from its option's domain."""
        return tuple(rng.choice(o.domain) for o in self.options)

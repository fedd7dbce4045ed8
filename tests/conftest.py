from __future__ import annotations

import math

import numpy as np
import pytest

from lidos.space import ConfigSpace, OptionSpec
from lidos.twin import CyberTwin, Environment, MeasurementTable


def dominates(a, b) -> bool:
    """Pareto dominance on (g1, g2), both minimized: the definition the
    brute-force front oracles peel by."""
    return (
        a.g1 <= b.g1
        and a.g2 <= b.g2
        and (a.g1 < b.g1 or a.g2 < b.g2)
    )


def normalized_distance(space: ConfigSpace, a, b) -> float:
    """Euclidean distance after rescaling every option to [0, 1] by its span:
    the distance repair and the auxiliary objective are defined by."""
    for plan in (a, b):
        if not space.validate_plan(plan):
            raise ValueError(f"plan {plan!r} is not valid in this space")
    return math.sqrt(sum(((x - y) * s) ** 2 for x, y, s in zip(a, b, space.scale)))


def reference_auxiliary(pool, space: ConfigSpace) -> list[float]:
    """The donor rule member by member: among the other members at minimal
    distance, the target value farthest from the member's own, ties to the
    lexicographically lowest plan, then to the earliest pool member."""
    coords = np.asarray([s.plan for s in pool], dtype=float)
    diff = (coords[:, None, :] - coords[None, :, :]) * np.asarray(space.scale)
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    out = []
    for i, s in enumerate(pool):
        nearest = np.flatnonzero(dist[i] == dist[i].min())
        donor = min((pool[j] for j in nearest), key=lambda a: (-abs(a.ft - s.ft), a.plan))
        out.append(donor.ft)
    return out


def make_space(*domains: tuple[int, ...]) -> ConfigSpace:
    return ConfigSpace(
        options=tuple(
            OptionSpec(name=f"o{i + 1}", domain=d) for i, d in enumerate(domains)
        )
    )


def make_table(space: ConfigSpace, values: dict, env_id: str = "e",
               direction: str = "minimize") -> MeasurementTable:
    return MeasurementTable(
        environment=Environment(id=env_id, direction=direction),
        option_names=tuple(o.name for o in space.options),
        rows={plan: float(v) for plan, v in values.items()},
    )


def make_twin(space: ConfigSpace, *tables: MeasurementTable,
              current: str | None = None) -> CyberTwin:
    twin = CyberTwin(space, tables)
    if current is not None:
        twin.set_environment(current)
    return twin


@pytest.fixture
def binary_pair_space() -> ConfigSpace:
    return make_space((0, 1), (1, 2, 3))

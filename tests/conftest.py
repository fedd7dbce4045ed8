from __future__ import annotations

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

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from lidos import stats
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


def reference_bootstrap_rejects(left, right, rng) -> bool:
    """Scott-Knott's bootstrap one `Random.choice` per resampled value: the
    loop whose draws, sums and verdict `stats._bootstrap_rejects` reproduces
    a block at a time."""
    observed = abs(sum(left) / len(left) - sum(right) / len(right))
    pool = list(left) + list(right)
    extreme = 0
    for _ in range(stats._RESAMPLES):
        lhs = [rng.choice(pool) for _ in left]
        rhs = [rng.choice(pool) for _ in right]
        if abs(sum(lhs) / len(lhs) - sum(rhs) / len(rhs)) >= observed:
            extreme += 1
    return extreme / stats._RESAMPLES <= 1.0 - stats._CONFIDENCE


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


@dataclass
class ProbedEpoch:
    """What one twin measured between two environment switches."""

    env_id: str
    measured: list = field(default_factory=list)  # every plan measured, in order
    raised: list = field(default_factory=list)  # the plans that raised the counter


@pytest.fixture
def twin_probe(monkeypatch) -> dict:
    """Watch every `CyberTwin` of the test from outside the planner: maps each
    twin, in the order of its first `set_environment`, to its epochs. The
    twin itself holds the final counter. A serial `run_scenario` makes one
    twin per (planner, repetition), in the order of its bundle's traces."""
    epochs: dict[CyberTwin, list[ProbedEpoch]] = {}
    measure, set_environment = CyberTwin.measure, CyberTwin.set_environment

    def probed_set_environment(twin, env):
        set_environment(twin, env)
        epochs.setdefault(twin, []).append(ProbedEpoch(twin.current.id))

    def probed_measure(twin, plan):
        before = twin.counter
        value = measure(twin, plan)
        epoch = epochs[twin][-1]
        epoch.measured.append(plan)
        if twin.counter != before:
            epoch.raised.append(plan)
        return value

    monkeypatch.setattr(CyberTwin, "set_environment", probed_set_environment)
    monkeypatch.setattr(CyberTwin, "measure", probed_measure)
    return epochs


def assert_accounting(trace, twin: CyberTwin, epochs: list[ProbedEpoch]) -> None:
    """The measurement accounting law, read off the twin: within an epoch the
    counter rises once per distinct plan measured and never for a repeat, its
    rises sum to its final value, and the trace records one measurement row
    per rise, in the epoch's environment, indexed by the counter."""
    for epoch in epochs:
        assert len(epoch.raised) == len(set(epoch.raised)), f"repeated rise in {epoch.env_id}"
        assert set(epoch.raised) == set(epoch.measured)
    assert sum(len(epoch.raised) for epoch in epochs) == twin.counter
    events = trace.events
    change = np.flatnonzero(events["env_change"])
    assert len(change) == len(epochs) - 1
    for epoch, rows in zip(epochs, np.split(events, change)):
        rows = rows[~(rows["adaptation_sent"] | rows["env_change"])]
        assert len(rows) == len(epoch.raised)
        assert {trace.env_ids[code] for code in rows["env"].tolist()} <= {epoch.env_id}
    measured = events[trace.measurement_mask()]
    assert measured["measurement_index"].tolist() == list(range(1, twin.counter + 1))

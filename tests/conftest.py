from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lidos
from lidos import planner, stats
from lidos.harness import TRACE_HEADER, csv_text, traces_csv_text
from lidos.space import ConfigSpace, OptionSpec
from lidos.twin import CyberTwin, Environment, MeasurementTable


def pytest_configure(config) -> None:
    """Make every RuntimeWarning an error: a numpy overflow or invalid value
    (in a distance term, a statistic) fails the test that meets it. So are
    a ResourceWarning and the warning pytest gives for an exception it could
    not raise (such as one in a finalizer): a file handle left open fails
    the test that leaked it."""
    for category in ("RuntimeWarning", "ResourceWarning",
                     "pytest.PytestUnraisableExceptionWarning"):
        config.addinivalue_line("filterwarnings", f"error::{category}")


def child_env(**env: str) -> dict[str, str]:
    """This process's environment plus `env`, with the directory that the
    imported `lidos` comes from first on PYTHONPATH, so that a child Python
    process imports the same package."""
    src = str(Path(lidos.__file__).resolve().parent.parent)
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def traces_text(bundle) -> str:
    """The whole traces.csv text of a bundle: the header, then each
    repetition's rows in (label, rep) order, as `write_bundle_outputs`
    streams them."""
    return csv_text(TRACE_HEADER, ()) + "".join(
        traces_csv_text(label, rep, bundle.traces[(label, rep)])
        for label in bundle.labels for rep in range(bundle.spec.repetitions))


def dominates(a, b) -> bool:
    """Pareto dominance on (g1, g2), both minimized: the definition the
    brute-force front oracles peel by."""
    return (
        a.g1 <= b.g1
        and a.g2 <= b.g2
        and (a.g1 < b.g1 or a.g2 < b.g2)
    )


def squared_distance(space: ConfigSpace, a, b) -> Fraction:
    """The squared Euclidean distance after rescaling every option to [0, 1]
    by its span, as an exact fraction: the distance repair and the auxiliary
    objective are defined by. Zero-span options contribute nothing."""
    for plan in (a, b):
        if not space.validate_plan(plan):
            raise ValueError(f"plan {plan!r} is not valid in this space")
    spans = [o.span for o in space.options]
    denominator = math.prod(s * s for s in spans if s)
    return Fraction(sum((x - y) ** 2 * (denominator // (s * s))
                        for x, y, s in zip(a, b, spans) if s), denominator)


def reference_auxiliary(pool, space: ConfigSpace) -> list[float]:
    """The donor rule member by member: among the other members at minimal
    distance, the target value farthest from the member's own, ties to the
    lexicographically lowest plan, then to the earliest pool member."""
    members: dict[tuple, list] = {}
    for s in pool:
        members.setdefault(s.plan, []).append(s)
    nearest = {}
    for plan, sharing in members.items():
        # A plan that another member shares is at distance 0 from it.
        dist = {other: squared_distance(space, plan, other) for other in members
                if other != plan or len(sharing) > 1}
        least = min(dist.values())
        nearest[plan] = [other for other, d in dist.items() if d == least]
    return [min((a for other in nearest[s.plan] for a in members[other] if a is not s),
                key=lambda a: (-abs(a.ft - s.ft), a.plan)).ft
            for s in pool]


def sum_in_order(values):
    """`values` added left to right from 0: what the builtin `sum()` of
    floats gives up to CPython 3.11. From 3.12 on it compensates its
    rounding, and can end on another float."""
    total = 0
    for value in values:
        total += value
    return total


def mean_in_order(values) -> float:
    return sum_in_order(values) / len(values)


def reference_bootstrap_rejects(left, right, rng) -> bool:
    """Scott-Knott's bootstrap one `Random.choice` per resampled value: the
    loop whose draws, sums and verdict `stats._bootstrap_rejects` reproduces
    a block at a time."""
    observed = abs(mean_in_order(left) - mean_in_order(right))
    pool = list(left) + list(right)
    extreme = 0
    for _ in range(stats._RESAMPLES):
        lhs = [rng.choice(pool) for _ in left]
        rhs = [rng.choice(pool) for _ in right]
        if abs(mean_in_order(lhs) - mean_in_order(rhs)) >= observed:
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
    return MeasurementTable.from_rows(
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
def ga(monkeypatch):
    """Set the planners' GA constants for one test, as in
    `ga(population=8, crossover=0.0, mutation=0.0)`; a value left out keeps
    its constant, and each returns when the test ends."""
    def set_constants(population=None, crossover=None, mutation=None) -> None:
        for name, value in (("POPULATION_SIZE", population), ("CROSSOVER_RATE", crossover),
                            ("MUTATION_RATE", mutation)):
            if value is not None:
                monkeypatch.setattr(planner, name, value)
    return set_constants


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

"""Comparison planners behind the shared planner interface."""

from __future__ import annotations

from .mmo import ScoredPlan
from .planner import BasePlanner, MmoPlanner, derive_seed
from .space import ConfigSpace
from .twin import CyberTwin, Environment

PLANNER_KINDS = ("lidos", "lidos_sta", "pseudo_dynamic", "stationary")


class MmoRestartPlanner(MmoPlanner):
    """Same search model as the dynamic planner, but an environment change
    triggers a full restart from random plans."""

    kind = "lidos_sta"

    def on_environment_change(self, env: Environment | str) -> None:
        self._begin_epoch(env)
        self.restart(derive_seed(self.base_seed, "restart", self.epoch))


class SogaPlanner(BasePlanner):
    """Single-objective GA: binary tournament on the target value, generational
    replacement with 1-elitism. Shares the measurement, interval, and
    adaptation logic of the base loop."""

    def _tournament_keys(self) -> list:
        return [m.ft for m in self.population]

    def _replace(self, offspring: list[ScoredPlan]) -> None:
        elite = min(self.population, key=lambda m: m.ft)
        if min(o.ft for o in offspring) > elite.ft:
            worst = max(range(len(offspring)), key=lambda i: offspring[i].ft)
            offspring[worst] = ScoredPlan(plan=elite.plan, ft=elite.ft)
        self.population = offspring


class PseudoDynamicPlanner(SogaPlanner):
    """Runs continuously across changes; the only change handling is
    re-evaluating the current population under the new environment."""

    kind = "pseudo_dynamic"

    def on_environment_change(self, env: Environment | str) -> None:
        self._begin_epoch(env)
        self._remeasure_population()


class StationaryPlanner(SogaPlanner):
    """Restarts the single-objective search from random plans at every
    environment change."""

    kind = "stationary"

    def on_environment_change(self, env: Environment | str) -> None:
        self._begin_epoch(env)
        self.restart(derive_seed(self.base_seed, "restart", self.epoch))


_PLANNERS = {
    "lidos": MmoPlanner,
    "lidos_sta": MmoRestartPlanner,
    "pseudo_dynamic": PseudoDynamicPlanner,
    "stationary": StationaryPlanner,
}


def make_planner(kind: str, space: ConfigSpace, twin: CyberTwin,
                 seed: int, k: int = 150) -> BasePlanner:
    """Build one of the four planner treatments; they differ only in selection
    and change handling, never in measurement semantics."""
    try:
        cls = _PLANNERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown planner kind {kind!r}; expected one of {PLANNER_KINDS}"
        ) from None
    return cls(space, twin, seed, k)

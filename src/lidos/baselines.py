"""The planner kinds and their factory."""

from __future__ import annotations

from .planner import KINDS, Planner
from .space import ConfigSpace
from .twin import CyberTwin

PLANNER_KINDS = tuple(KINDS)

# bench/tracing.py, their only user, patches planners under these names; they
# go with the benchmark change of ROADMAP item 10.
MmoRestartPlanner = PseudoDynamicPlanner = StationaryPlanner = Planner


def make_planner(kind: str, space: ConfigSpace, twin: CyberTwin,
                 seed: int, k: int = 150) -> Planner:
    """Build one of the four planner treatments; they differ only in selection
    and change handling, never in measurement semantics."""
    return Planner(kind, space, twin, seed, k)

"""The planner kinds and their factory."""

from .planner import KINDS, Planner

PLANNER_KINDS = tuple(KINDS)

# bench/tracing.py, their only user, patches planners under these names; they
# go with the benchmark change of ROADMAP item 10.
MmoRestartPlanner = PseudoDynamicPlanner = StationaryPlanner = Planner

# `make_planner(kind, space, twin, seed, k=150)` builds one of the four
# planner treatments; they differ only in selection and change handling,
# never in measurement semantics.
make_planner = Planner

"""Bi-objective transformation of the target objective plus Pareto machinery.

A plan's auxiliary objective is the target value of its most dissimilar
nearest neighbor in the pool; the pair (g1, g2) = (ft + fa, ft - fa) is
then optimized with standard nondominated sorting and crowding selection.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .space import ConfigSpace, Plan


@dataclass(eq=False)
class ScoredPlan:
    """A plan with its (canonically minimized) target value and, once scored,
    its auxiliary objective and transformed objectives.

    Identity semantics: two scored plans are distinct pool members even when
    they share a plan.
    """

    plan: Plan
    ft: float
    fa: float | None = None
    g1: float | None = None
    g2: float | None = None
    rank: int | None = None
    crowding: float | None = None


def assign_auxiliary(pool: list[ScoredPlan], space: ConfigSpace) -> None:
    """Set every member's auxiliary objective from its nearest neighbors.

    For member s, the neighbor set holds all other members at minimal
    normalized distance (all ties included, a duplicate plan alone forms the
    set). Among them the one whose target value differs most from s's wins;
    ties on that difference go to the lexicographically lowest plan. Plans
    must lie in `space`, whose integer distances are exact.
    """
    if len(pool) < 2:
        raise ValueError("auxiliary assignment needs a pool of at least 2 plans")
    # Columns in plan order (stable), so the first maximum of a row is the
    # lexicographically lowest donor, the earliest pool member among equals.
    # Members outside the nearest set get a gap of -1, below any real one.
    plans = [s.plan for s in pool]
    order = sorted(range(len(pool)), key=plans.__getitem__)
    coords = np.fromiter(chain.from_iterable(plans), space.distance_dtype,
                         len(pool) * len(space.options)).reshape(len(pool), -1)
    steps = coords[:, None, :] - coords[order]
    steps *= steps
    dist = steps @ np.array(space.weights, dtype=space.distance_dtype)
    # A member is not its own neighbor: its cell lies above every distance.
    dist[np.arange(len(pool)), np.argsort(order)] = dist.max() + 1
    ft = np.asarray([s.ft for s in pool])
    donor_ft = ft[order]
    gap = np.where(dist == dist.min(axis=1, keepdims=True),
                   np.abs(donor_ft - ft[:, None]), -1.0)
    for s, fa in zip(pool, donor_ft[gap.argmax(axis=1)].tolist()):
        s.fa = fa


def transform(scored: ScoredPlan) -> ScoredPlan:
    """Fill in g1 = ft + fa and g2 = ft - fa."""
    if scored.fa is None:
        raise ValueError("auxiliary objective not set")
    scored.g1 = scored.ft + scored.fa
    scored.g2 = scored.ft - scored.fa
    return scored


def nondominated_sort(pool: list[ScoredPlan]) -> list[list[ScoredPlan]]:
    """Peel the pool into Pareto fronts on (g1, g2), both minimized, and set
    every member's rank.

    One sweep in (g1, g2) order (Jensen, IEEE TEVC 2003): a member joins the
    first front whose latest entry does not dominate it. Along the sweep g1
    never decreases, so that entry is its front's member of least g2 and
    dominates the member exactly when it comes first in (g2, g1) order; these
    keys rise strictly from front to front, so a bisection finds the front.
    Each front lists its members in pool order, which every later tie-break
    relies on.
    """
    tails: list[tuple[float, float]] = []
    fronts: list[list[int]] = []
    keys = [(s.g1, s.g2) for s in pool]
    for i in sorted(range(len(pool)), key=keys.__getitem__):
        g1, g2 = keys[i]
        key = (g2, g1)
        rank = bisect_left(tails, key)
        if rank == len(tails):
            tails.append(key)
            fronts.append([])
        tails[rank] = key
        fronts[rank].append(i)
        pool[i].rank = rank
    return [[pool[i] for i in sorted(front)] for front in fronts]


def crowding_distance(front: list[ScoredPlan]) -> None:
    """Set every member's NSGA-II crowding distance (Deb et al., IEEE TEVC
    2002).

    Boundary members per objective get infinity; interior members accumulate
    normalized neighbor gaps. An objective with zero range contributes nothing
    to interior members.
    """
    if not front:
        raise ValueError("empty front")
    for member in front:
        member.crowding = math.inf if len(front) <= 2 else 0.0
    if len(front) <= 2:
        return
    for objective in (attrgetter("g1"), attrgetter("g2")):
        order = sorted(front, key=objective)
        order[0].crowding = order[-1].crowding = math.inf
        span = objective(order[-1]) - objective(order[0])
        if span == 0:
            continue
        for before, member, after in zip(order, order[1:], order[2:]):
            if member.crowding != math.inf:
                member.crowding += (objective(after) - objective(before)) / span


def environmental_selection(union: list[ScoredPlan], n: int) -> list[ScoredPlan]:
    """Keep the top n members: fill whole fronts by rank, truncate the split
    front by descending crowding distance (insertion order breaks ties)."""
    if n <= 0:
        raise ValueError("population size must be positive")
    if len(union) < n:
        raise ValueError(f"cannot select {n} plans from a union of {len(union)}")
    survivors: list[ScoredPlan] = []
    for front in nondominated_sort(union):
        crowding_distance(front)
        if len(survivors) + len(front) <= n:
            survivors.extend(front)
            if len(survivors) == n:
                break
        else:
            ordered = sorted(front, key=lambda m: -m.crowding)
            survivors.extend(ordered[: n - len(survivors)])
            break
    return survivors

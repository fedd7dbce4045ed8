"""Nonparametric statistics for repeated-run comparisons.

All tests operate on canonical smaller-is-better values; SampleGroup carries
the original direction so reported medians keep their native units.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .planner import RunTrace

# The exact null distribution is used while the number of group assignments
# stays below this; beyond it the normal approximation takes over.
_EXACT_LIMIT = 200_000

_BOOTSTRAP_SEED = 0x51AB


@dataclass(frozen=True)
class SampleGroup:
    """One treatment's per-repetition results in original units."""

    label: str
    values: tuple[float, ...]
    direction: str = "minimize"

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"sample group {self.label!r} is empty")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError(f"sample group {self.label!r} holds non-finite values")
        if self.direction not in ("minimize", "maximize"):
            raise ValueError(f"bad direction {self.direction!r}")

    def canonical(self) -> tuple[float, ...]:
        """Values mapped so that smaller is always better."""
        if self.direction == "minimize":
            return self.values
        return tuple(-v for v in self.values)


@dataclass(frozen=True)
class Summary:
    median: float
    iqr: float


@dataclass(frozen=True)
class RankEntry:
    label: str
    rank: int
    median: float
    iqr: float


def summarize(groups: list[SampleGroup]) -> dict[str, Summary]:
    """Median (midpoint convention) and IQR (linear-interpolation percentiles)
    per group, in original units."""
    out: dict[str, Summary] = {}
    for group in groups:
        if group.label in out:
            raise ValueError(f"duplicate group label {group.label!r}")
        values = np.asarray(group.values, dtype=float)
        q25, q50, q75 = (float(np.percentile(values, q)) for q in (25, 50, 75))
        out[group.label] = Summary(median=q50, iqr=q75 - q25)
    return out


def _doubled_midranks(values: list[float]) -> list[int]:
    """Midranks scaled by 2 so tied ranks stay integral."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    doubled = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank2 = (i + 1) + (j + 1)
        for k in range(i, j + 1):
            doubled[order[k]] = rank2
        i = j + 1
    return doubled


def wilcoxon_rank_sum(xs, ys) -> float:
    """Two-sided rank-sum p-value.

    Small samples are enumerated exactly over the observed midranks; larger
    ones use the normal approximation with tie-corrected variance. Degenerate
    samples (zero rank variance) return p = 1.
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    n1, n2 = len(xs), len(ys)
    total = n1 + n2
    doubled = _doubled_midranks(xs + ys)
    observed2 = sum(doubled[:n1])
    mean2 = n1 * (total + 1)

    splits = math.comb(total, n1)
    if splits <= _EXACT_LIMIT:
        # Under the null every split of the pooled ranks is equally likely;
        # count the splits by the rank sum of the smaller side, whose distance
        # from its own mean equals that of xs.
        deviation = abs(observed2 - mean2)
        m = min(n1, n2)
        mean_m = m * (total + 1)
        by_sum: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(m)]
        for i, rank2 in enumerate(doubled):
            for k in range(min(i + 1, m), 0, -1):
                into = by_sum[k]
                for sum2, count in by_sum[k - 1].items():
                    into[sum2 + rank2] = into.get(sum2 + rank2, 0) + count
        extreme = sum(count for sum2, count in by_sum[m].items()
                      if abs(sum2 - mean_m) >= deviation)
        return extreme / splits

    tie_sizes: dict[int, int] = {}
    for rank2 in doubled:
        tie_sizes[rank2] = tie_sizes.get(rank2, 0) + 1
    tie_term = sum(t**3 - t for t in tie_sizes.values())
    variance = n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        return 1.0
    z = (observed2 - mean2) / 2.0 / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def a12(xs, ys, direction: str = "minimize") -> float:
    """Probability-of-superiority effect size of xs over ys.

    Counts pairs where x beats y under the given direction; ties count half.
    0.5 means no effect; 0.56/0.64/0.71 are the usual small/medium/large
    thresholds.
    """
    if direction not in ("minimize", "maximize"):
        raise ValueError(f"bad direction {direction!r}")
    if not xs or not ys:
        raise ValueError("both samples must be non-empty")
    better = 0
    ties = 0
    for x in xs:
        for y in ys:
            if x == y:
                ties += 1
            elif (x < y) == (direction == "minimize"):
                better += 1
    return (better + 0.5 * ties) / (len(xs) * len(ys))


def split_delta(left, right) -> float:
    """Expected mean-difference gain of splitting one list into two sub-lists:
    sum over sub-lists of |sub|/|all| * (mean(sub) - mean(all))^2."""
    left = list(left)
    right = list(right)
    if not left or not right:
        raise ValueError("both sides of a split must be non-empty")
    both = left + right
    grand = sum(both) / len(both)
    out = 0.0
    for side in (left, right):
        side_mean = sum(side) / len(side)
        out += len(side) / len(both) * (side_mean - grand) ** 2
    return out


def _bootstrap_rejects(left: list[float], right: list[float], resamples: int,
                       confidence: float, rng: random.Random) -> bool:
    observed = abs(sum(left) / len(left) - sum(right) / len(right))
    pool = left + right
    extreme = 0
    for _ in range(resamples):
        lhs = [rng.choice(pool) for _ in left]
        rhs = [rng.choice(pool) for _ in right]
        if abs(sum(lhs) / len(lhs) - sum(rhs) / len(rhs)) >= observed:
            extreme += 1
    return extreme / resamples <= 1.0 - confidence


def scott_knott(groups: list[SampleGroup], *, resamples: int = 1000,
                confidence: float = 0.99, effect_threshold: float = 0.6,
                rng: random.Random | None = None) -> tuple[RankEntry, ...]:
    """Cluster groups into statistically distinct ranks.

    Groups are sorted by median (best first), then recursively split at the
    point maximizing the expected mean difference; a split stands only when a
    bootstrap test rejects equality at the given confidence AND the effect
    size between the sub-lists reaches the threshold. Terminal sub-lists are
    ranked by their mean.
    """
    if len(groups) < 2:
        raise ValueError("ranking needs at least two groups")
    directions = {g.direction for g in groups}
    if len(directions) != 1:
        raise ValueError("all groups must share one direction")
    labels = [g.label for g in groups]
    if len(set(labels)) != len(labels):
        raise ValueError("group labels must be unique")
    rng = rng if rng is not None else random.Random(_BOOTSTRAP_SEED)

    canonical = {g.label: list(g.canonical()) for g in groups}

    def flat(sub: list[SampleGroup]) -> list[float]:
        return [v for g in sub for v in canonical[g.label]]

    def split(sub: list[SampleGroup]) -> list[list[SampleGroup]]:
        if len(sub) == 1:
            return [sub]
        best_i, best_delta = 1, -1.0
        for i in range(1, len(sub)):
            delta = split_delta(flat(sub[:i]), flat(sub[i:]))
            if delta > best_delta:
                best_delta, best_i = delta, i
        left, right = sub[:best_i], sub[best_i:]
        lflat, rflat = flat(left), flat(right)
        effect = max(a12(lflat, rflat), a12(rflat, lflat))
        if effect >= effect_threshold and _bootstrap_rejects(
            lflat, rflat, resamples, confidence, rng
        ):
            return split(left) + split(right)
        return [sub]

    ordered = sorted(groups, key=lambda g: float(np.percentile(canonical[g.label], 50)))
    clusters = split(ordered)
    clusters.sort(key=lambda sub: sum(flat(sub)) / len(flat(sub)))

    stats = summarize(groups)
    entries: list[RankEntry] = []
    for rank, cluster in enumerate(clusters, 1):
        for group in cluster:
            entries.append(
                RankEntry(
                    label=group.label,
                    rank=rank,
                    median=stats[group.label].median,
                    iqr=stats[group.label].iqr,
                )
            )
    entries.sort(
        key=lambda e: (
            e.rank,
            float(np.percentile(canonical[e.label], 50)),
            e.iqr,
        )
    )
    return tuple(entries)


def speedup(base_trace: RunTrace, lidos_trace: RunTrace, change_marker: int = 1) -> float:
    """Post-change catch-up ratio.

    T_base is the smallest post-change measurement count at which the baseline
    first attains its own post-change best; T_lidos is the smallest count at
    which the other trace attains a value at least that good. Returns
    T_base / T_lidos, or infinity when the target is never reached.
    """
    base = base_trace.measurements_after_change(change_marker)["ft"]
    other = lidos_trace.measurements_after_change(change_marker)["ft"]
    if not len(base) or not len(other):
        raise ValueError("empty post-change segment")
    base_best = base.min()
    t_base = int(np.argmax(base == base_best)) + 1
    reached = np.flatnonzero(other <= base_best)
    if not len(reached):
        return math.inf
    return t_base / (int(reached[0]) + 1)

"""Nonparametric statistics for repeated-run comparisons.

Every function here takes canonical values, where smaller is better: the twin
makes each raw value canonical as it measures it, with its environment's sign,
and a report that wants original units multiplies by that sign again.
`summarize` describes whatever values it is given, in their own units.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .planner import RunTrace

# The exact null distribution is used while the number of group assignments
# stays below this; beyond it the normal approximation takes over.
_EXACT_LIMIT = 200_000

# A Scott-Knott split stands when a bootstrap of this many resamples rejects
# equal means at this confidence and the effect size reaches this threshold.
_RESAMPLES = 1000
_ROUNDS_PER_BLOCK = 100  # divides _RESAMPLES
_CONFIDENCE = 0.99
_EFFECT_THRESHOLD = 0.6


@dataclass(frozen=True)
class Summary:
    median: float
    iqr: float


def quartiles(values) -> tuple[float, float, float]:
    """The 25th, 50th and 75th percentiles of `values` by numpy's linear
    interpolation; the median is the midpoint of the middle pair.

    Each repeats, step by step, one `np.percentile(values, q)` call of numpy
    2.4.6 (`_quantile` and `_lerp` in `numpy/lib/_function_base_impl.py`),
    so each is the same float, zero signs included. Which of `0.0` and
    `-0.0` lands at an index follows numpy's introselect, so each q makes
    its own partition of the values, with numpy's kth, not one sort."""
    values = np.asarray(values, dtype=float)
    q25, q50, q75 = (_linear_percentile(values, q) for q in (0.25, 0.5, 0.75))
    return q25, q50, q75


def _linear_percentile(values: np.ndarray, q: float) -> float:
    n = len(values)
    index = (n - 1) * q
    if index < 0:
        below = above = 0
    elif index >= n - 1:
        below = above = -1
    else:
        below = math.floor(index)
        above = below + 1
    gamma = index - below
    part = np.partition(values, sorted({-1, 0, below, above}))
    if math.isnan(part[-1]):
        return float(part[-1])
    a, b = float(part[below]), float(part[above])
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def summarize(samples: Mapping[str, Sequence[float]]) -> dict[str, Summary]:
    """Median and IQR (see `quartiles`) per label."""
    out: dict[str, Summary] = {}
    for label, values in samples.items():
        q25, q50, q75 = quartiles(values)
        out[label] = Summary(median=q50, iqr=q75 - q25)
    return out


def _doubled_midranks(values) -> tuple[np.ndarray, np.ndarray]:
    """Midranks scaled by 2 so tied ranks stay integral, and the size of
    each group of equal values."""
    _, group, sizes = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(sizes)
    return (2 * ends - sizes + 1)[group], sizes


def wilcoxon_rank_sum(xs, ys) -> float:
    """Two-sided rank-sum p-value.

    Small samples are enumerated exactly over the observed midranks; larger
    ones use the normal approximation with tie-corrected variance. Degenerate
    samples (zero rank variance) return p = 1.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n1, n2 = len(xs), len(ys)
    if not n1 or not n2:
        raise ValueError("both samples must be non-empty")
    total = n1 + n2
    doubled, tie_sizes = _doubled_midranks(np.concatenate((xs, ys)))
    observed2 = int(doubled[:n1].sum())
    mean2 = n1 * (total + 1)

    splits = math.comb(total, n1)
    if splits <= _EXACT_LIMIT:
        # Under the null every split of the pooled ranks is equally likely;
        # count the splits by the rank sum of the smaller side, whose distance
        # from its own mean equals that of xs. Row k counts the k-subsets of
        # the ranks added so far by doubled sum, and no doubled rank passes
        # 2 * total, so row k - 1 ends before (k - 1) * 2 * total + 1.
        deviation = abs(observed2 - mean2)
        m = min(n1, n2)
        mean_m = m * (total + 1)
        by_sum = np.zeros((m + 1, m * 2 * total + 1), dtype=np.int64)
        by_sum[0, 0] = 1
        for i, rank2 in enumerate(doubled.tolist()):
            for k in range(min(i + 1, m), 0, -1):
                width = (k - 1) * 2 * total + 1
                by_sum[k, rank2:rank2 + width] += by_sum[k - 1, :width]
        far = np.abs(np.arange(by_sum.shape[1]) - mean_m) >= deviation
        return int(by_sum[m, far].sum()) / splits

    tie_term = sum(t**3 - t for t in tie_sizes.tolist())
    variance = n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        return 1.0
    z = (observed2 - mean2) / 2.0 / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def a12(xs, ys) -> float:
    """Probability-of-superiority effect size of xs over ys.

    Counts pairs where x is smaller than y; ties count half. 0.5 means no
    effect; 0.56/0.64/0.71 are the usual small/medium/large thresholds.
    """
    if not len(xs) or not len(ys):
        raise ValueError("both samples must be non-empty")
    x = np.asarray(xs)[:, np.newaxis]
    better = int(np.count_nonzero(x < ys))
    ties = int(np.count_nonzero(x == ys))
    return (better + 0.5 * ties) / (len(xs) * len(ys))


def _sums_in_order(rows) -> np.ndarray:
    """The sum of each row of `rows` (of its values, when one-dimensional),
    added left to right from 0 as CPython 3.11's `sum()` adds floats.

    From 3.12 on `sum()` compensates its rounding, so the same values can sum
    to another float, and a Scott-Knott split or rank with them.
    `np.add.accumulate` adds in order, where `np.sum` adds pairwise; the
    closing ``+ 0.0`` turns a row of only -0.0 into the 0.0 that `sum()`'s
    integer start gives."""
    return np.add.accumulate(np.asarray(rows, dtype=float), axis=-1)[..., -1] + 0.0


def _mean(values) -> float:
    return float(_sums_in_order(values)) / len(values)


def split_delta(left, right) -> float:
    """Expected mean-difference gain of splitting one list into two sub-lists:
    sum over sub-lists of |sub|/|all| * (mean(sub) - mean(all))^2."""
    left = list(left)
    right = list(right)
    if not left or not right:
        raise ValueError("both sides of a split must be non-empty")
    both = left + right
    grand = _mean(both)
    out = 0.0
    for side in (left, right):
        out += len(side) / len(both) * (_mean(side) - grand) ** 2
    return out


def _bootstrap_rejects(left: list[float], right: list[float], rng: random.Random) -> bool:
    """Whether resampling the pooled values rejects equal means: the draws,
    means and verdict of ``_RESAMPLES`` rounds of ``[rng.choice(pool) for _
    in left]`` and ``[... for _ in right]``, with the picks of
    `_ROUNDS_PER_BLOCK` rounds drawn at a time and each side of a round added
    in order by `_sums_in_order`."""
    observed = abs(_mean(left) - _mean(right))
    pool = np.asarray(left + right, dtype=float)
    n, cut = len(pool), len(left)
    extreme = 0
    for _ in range(_RESAMPLES // _ROUNDS_PER_BLOCK):
        block = pool[_choice_indices(rng, n, _ROUNDS_PER_BLOCK * n)].reshape(-1, n)
        lhs = _sums_in_order(block[:, :cut]) / cut
        rhs = _sums_in_order(block[:, cut:]) / len(right)
        extreme += int(np.count_nonzero(np.abs(lhs - rhs) >= observed))
    return extreme / _RESAMPLES <= 1.0 - _CONFIDENCE


def _choice_indices(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The indices `count` calls of ``rng.choice`` on n items pick, in order,
    leaving `rng` where they leave it.

    Each call takes the top ``n.bit_length()`` bits of one 32-bit Mersenne
    Twister word and draws again while they are n or more. ``getrandbits(32 *
    m)`` returns the next m words, the first the least significant, so a
    block of words is screened at once; the state is then restored and moved
    on by exactly the words the calls consume."""
    k = n.bit_length()
    state = rng.getstate()
    words = count * 2**k // n + count // 32 + 64
    while True:
        block = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                              dtype="<u4") >> (32 - k)
        hits = np.flatnonzero(block < n)
        rng.setstate(state)
        if len(hits) >= count:
            break
        words *= 2
    rng.getrandbits(32 * (int(hits[count - 1]) + 1))
    return block[hits[:count]]


def scott_knott(samples: Mapping[str, Sequence[float]], rng: random.Random) -> dict[str, int]:
    """Each label's rank, 1 the best; labels of one rank are statistically
    indistinguishable.

    Labels are sorted by median (best first), then recursively split at the
    point maximizing the expected mean difference; a split stands only when a
    bootstrap test rejects equality at `_CONFIDENCE` AND the effect size
    between the sub-lists reaches `_EFFECT_THRESHOLD`. Terminal sub-lists are
    ranked by their mean.
    """
    def flat(sub: list[str]) -> list[float]:
        return [v for label in sub for v in samples[label]]

    def split(sub: list[str]) -> list[list[str]]:
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
        if effect >= _EFFECT_THRESHOLD and _bootstrap_rejects(lflat, rflat, rng):
            return split(left) + split(right)
        return [sub]

    clusters = split(sorted(samples, key=lambda label: quartiles(samples[label])[1]))
    clusters.sort(key=lambda sub: _mean(flat(sub)))
    return {label: rank for rank, cluster in enumerate(clusters, 1) for label in cluster}


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

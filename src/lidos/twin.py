"""Dataset-backed measurement oracle with per-environment caching and counting."""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .space import ConfigSpace, OptionSpec, Plan

DIRECTIONS = ("minimize", "maximize")

# The most plans `synth_landscape` enumerates: 13 times the 78,125 of seven
# options of five values.
SYNTH_MAX_PLANS = 2**20
# The most plan-to-peak distances (plans x peaks, 8 bytes each) it keeps:
# over 5 times the 3,125,000 of 40 peaks over those 78,125 plans.
SYNTH_MAX_DISTANCES = 2**24

# Bytes of float64 distance terms one table caches per scale for its
# nearest-plan searches; past this, a search computes the uncached terms anew.
_TERM_CACHE_BYTES = 16 << 20


@dataclass(frozen=True)
class Environment:
    """One operating condition; its direction says whether raw values are to be
    minimized or maximized. `sign` (1.0 or -1.0) turns a raw value into its
    canonical, smaller-is-better value and back again."""

    id: str
    direction: str = "minimize"
    units: str = ""
    sign: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        object.__setattr__(self, "sign", 1.0 if self.direction == "minimize" else -1.0)


class MeasurementTable:
    """Plan -> raw performance lookup for a single environment.

    The rows are read-only after construction, so tables are safely shared
    across runs; the nearest-plan search's caches grow as searches run.
    """

    def __init__(self, environment: Environment, option_names: tuple[str, ...],
                 rows: dict[Plan, float]):
        if not option_names:
            raise ValueError("a measurement table needs at least one option column")
        if not rows:
            raise ValueError(f"measurement table for {environment.id!r} is empty")
        # Checked a column at a time; the rows are walked only to name the
        # first bad one.
        if (set(map(len, rows)) != {len(option_names)}
                or not all(map(math.isfinite, rows.values()))):
            for plan, value in rows.items():
                if len(plan) != len(option_names):
                    raise ValueError(
                        f"plan {plan!r} does not match option columns {option_names}")
                if not math.isfinite(value):
                    raise ValueError(f"non-finite performance value for plan {plan!r}")
        self.environment = environment
        self.option_names = option_names
        self.rows = rows
        self._validated_for: ConfigSpace | None = None
        # Nearest-plan search state, built on the first search: the plans in
        # lexicographic order, their values as one contiguous float column per
        # option, and the memo of answers. The distance terms cached per
        # (option, value) pair, like the memo, hold for `_nearest_scale` only.
        self._sorted_plans: list[Plan] = []
        self._columns: np.ndarray | None = None
        self._terms: list[dict[float, np.ndarray]] = []
        self._room = 0
        self._nearest: dict[Plan, Plan] = {}
        self._nearest_scale: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def implied_space(self) -> ConfigSpace:
        """Space whose domains are the sorted distinct values per option column."""
        return ConfigSpace(
            options=tuple(
                OptionSpec(name=name, domain=tuple(sorted(set(col))))
                for name, col in zip(self.option_names, zip(*self.rows))
            )
        )

    def validate_space(self, space: ConfigSpace) -> None:
        """Check every row key is a valid plan of `space` (cached per space).

        Each option column's distinct values are checked against its domain;
        the rows are walked only to name the first plan outside the space."""
        if self._validated_for == space:
            return
        if len(space.options) != len(self.option_names) or any(
                not set(col) <= set(option.domain)
                for option, col in zip(space.options, zip(*self.rows))):
            for plan in self.rows:
                if not space.validate_plan(plan):
                    raise ValueError(
                        f"table for {self.environment.id!r} holds plan {plan!r} "
                        "outside the config space"
                    )
        self._validated_for = space

    def nearest(self, plan: Plan, scale: tuple[float, ...]) -> Plan:
        """The measured plan nearest to `plan` by Euclidean distance after
        multiplying each option by its `scale`; ties go to the
        lexicographically lowest plan. Answers are memoized per scale. A plan
        or scale without one value per option raises ValueError.

        Each (option, value) pair's squared scaled difference to every row is
        computed in float64 and cached, up to `_TERM_CACHE_BYTES` per scale.
        The search adds the plan's terms in numpy's row order, so every
        distance has the bits of the row-wise formula
        ``(((rows - plan) * scale) ** 2).sum(axis=1)``, and the first minimum
        is the answer.
        """
        n = len(self.option_names)
        if len(plan) != n or len(scale) != n:
            raise ValueError(
                f"the table has {n} options, but the plan has {len(plan)} values "
                f"and the scale {len(scale)}")
        if self._columns is None:
            self._sorted_plans = sorted(self.rows)
            self._columns = np.asarray(list(zip(*self._sorted_plans)), dtype=float)
        if scale is not self._nearest_scale and scale != self._nearest_scale:
            self._nearest = {}
            self._terms = [{} for _ in range(n)]
            self._room = _TERM_CACHE_BYTES // self._columns[0].nbytes
            self._nearest_scale = scale
        found = self._nearest.get(plan)
        if found is not None:
            return found
        dist = _row_sum(list(map(self._term, range(n), map(float, plan), scale)))
        found = self._nearest[plan] = self._sorted_plans[int(dist.argmin())]
        return found

    def _term(self, option: int, value: float, s: float) -> np.ndarray:
        """The column of ``((column - value) * s) ** 2`` for one option, the
        row-wise formula's term: cached while the cache has room, and
        otherwise computed anew on each call."""
        cache = self._terms[option]
        term = cache.get(value)
        if term is None:
            term = np.subtract(self._columns[option], value)
            np.multiply(term, s, out=term)
            np.square(term, out=term)
            if self._room:
                self._room -= 1
                cache[value] = term
        return term


def load_measurements(path: str | Path, env: Environment) -> MeasurementTable:
    """Load one environment's measurement CSV.

    Header is ``opt1,...,optN,performance``; one row per plan. Duplicate rows
    are tolerated only when their performance values agree.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if len(header) < 2:
                raise ValueError(
                    f"{path}: need at least one option column and a performance column")
            option_names = tuple(header[:-1])
            dupes = sorted({name for name in option_names if option_names.count(name) > 1})
            if dupes:
                raise ValueError(f"{path}:1: duplicate option name(s): {dupes}")
            rows: dict[Plan, float] = {}
            for lineno, row in enumerate(reader, 2):
                if not "".join(row).strip():
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
                try:
                    # Integer literals take the fast path; `_as_int` also
                    # starts with `int`, and names the first cell it refuses.
                    try:
                        plan = tuple(map(int, row[:-1]))
                    except ValueError:
                        plan = tuple(_as_int(cell) for cell in row[:-1])
                    value = float(row[-1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite performance value")
                if plan in rows and rows[plan] != value:
                    raise ValueError(
                        f"{path}:{lineno}: duplicate plan {plan} with conflicting values "
                        f"{rows[plan]} vs {value}"
                    )
                rows[plan] = value
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return MeasurementTable(environment=env, option_names=option_names, rows=rows)


def _as_int(cell: str) -> int:
    """An option value: an integer literal, taken exactly, or a number literal
    such as ``3.0`` or ``1e3`` whose exact decimal value is an integer of at
    most 2**53 in magnitude, the range in which every integer is a float of
    its own."""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        value = Decimal(cell)
    except InvalidOperation:
        raise ValueError(f"option value {cell!r} is not a number") from None
    if not (value.is_finite() and value.copy_abs() <= 2**53
            and value == value.to_integral_value()):
        raise ValueError(f"option value {cell!r} is not an integer")
    return int(value)


class CyberTwin:
    """Measurement replica of the managed system.

    Serves the current environment's table, caches plans measured since the
    environment last became current, and counts genuine (cache-miss)
    measurements. Raw values from maximize environments are negated so every
    caller sees a minimization objective.
    """

    def __init__(self, space: ConfigSpace, tables):
        self.space = space
        self.tables: dict[str, MeasurementTable] = {}
        for table in tables:
            env_id = table.environment.id
            if env_id in self.tables:
                raise ValueError(f"duplicate environment id {env_id!r}")
            table.validate_space(space)
            self.tables[env_id] = table
        if not self.tables:
            raise ValueError("a twin needs at least one measurement table")
        self.current: Environment | None = None
        self.counter = 0
        self._cache: set[Plan] = set()

    def current_table(self) -> MeasurementTable:
        if self.current is None:
            raise ValueError("twin has no current environment")
        return self.tables[self.current.id]

    def set_environment(self, env: Environment | str) -> None:
        """Switch environments. Always treated as a change event: the target
        environment's cache is cleared even when it is already current."""
        env_id = env if isinstance(env, str) else env.id
        if env_id not in self.tables:
            raise ValueError(f"unknown environment {env_id!r}")
        self.current = self.tables[env_id].environment
        self._cache = set()

    def measure(self, plan: Plan) -> float:
        table = self.current_table()
        try:
            raw = table.rows[plan]
        except KeyError:
            raise KeyError(
                f"plan {plan!r} has no measurement under environment "
                f"{table.environment.id!r}"
            ) from None
        if plan not in self._cache:
            self._cache.add(plan)
            self.counter += 1
        return raw * self.current.sign

    def coverage(self) -> float:
        return len(self._cache) / len(self.current_table())

    def repair(self, plan: Plan) -> Plan:
        """Map a plan to the nearest measured plan of the current environment.

        Plans already in the table pass through; others go to the table's
        nearest-plan search under the space's normalized distance, which the
        table memoizes (off-table offspring recur a lot on sparse datasets).
        """
        table = self.current_table()
        if plan in table.rows:
            return plan
        return table.nearest(plan, self.space.scale)


def synth_landscape(n_options: int = 6, domain_size: int = 5, n_peaks: int = 40,
                    peak_shift: int = 1, noise_seed: int = 0,
                    ) -> tuple[MeasurementTable, MeasurementTable]:
    """Generate two fully enumerated environments over one space.

    Both environments are sums of Gaussian basins at the same well-separated
    locations, but the basin depths are cyclically permuted between them, so
    the best plan of environment A stays a (non-global) local optimum of
    environment B. A tiny deterministic jitter breaks exact ties.

    A shape of fewer than one option, fewer than two values per option,
    more than `SYNTH_MAX_PLANS` plans, fewer than two peaks or more peaks
    than plans, more than `SYNTH_MAX_DISTANCES` plans x peaks, or a peak
    shift that maps every peak to itself is refused before anything is
    built; the error names the `lidos synth` flag and its value.
    """
    if n_options < 1:
        raise ValueError(f"--options must be at least 1, got {n_options}")
    if domain_size < 2:
        raise ValueError(f"--domain-size must be at least 2, got {domain_size}")
    size = 1
    for _ in range(n_options):
        size *= domain_size
        if size > SYNTH_MAX_PLANS:
            raise ValueError(
                f"--options {n_options} with --domain-size {domain_size} make more "
                f"than the {SYNTH_MAX_PLANS:,} plans a landscape may have")
    if n_peaks < 2:
        raise ValueError(f"--peaks must be at least 2, got {n_peaks}")
    if n_peaks > size:
        raise ValueError(
            f"--peaks {n_peaks} is more than the {size:,} plans of --options {n_options} "
            f"with --domain-size {domain_size}")
    if size * n_peaks > SYNTH_MAX_DISTANCES:
        raise ValueError(
            f"--peaks {n_peaks} over {size:,} plans make more than the "
            f"{SYNTH_MAX_DISTANCES:,} plan-to-peak distances a landscape may have")
    if peak_shift % n_peaks == 0:
        raise ValueError(
            f"--peak-shift {peak_shift} must not be a multiple of --peaks {n_peaks}")

    space = ConfigSpace(
        options=tuple(
            OptionSpec(name=f"o{i + 1}", domain=tuple(range(domain_size)))
            for i in range(n_options)
        )
    )
    plans = list(itertools.product(range(domain_size), repeat=n_options))
    rng = random.Random(noise_seed)
    values = np.arange(domain_size, dtype=float)
    # Option j's axis of the product grid, whose C order is the plans' order.
    axes = [(1,) * j + (domain_size,) + (1,) * (n_options - 1 - j) for j in range(n_options)]

    def squared_distances(center: Plan) -> np.ndarray:
        """Every plan's squared scaled distance to `center`: per option, a
        grid of the terms ``((v - c_j) * scale_j) ** 2``, summed over the
        product grid in the order numpy sums one row of the terms."""
        terms = [(((values - c) * s) ** 2).reshape(axis)
                 for c, s, axis in zip(center, space.scale, axes)]
        return _row_sum(terms).reshape(-1)

    # Greedy max-min placement keeps the basins well separated; argmax ties go
    # to the lexicographically lowest plan, so the layout is deterministic
    # given the seed (only the first center is drawn at random). Each
    # center's squared distances are kept as its column of `d2`.
    d2 = np.empty((len(plans), n_peaks))
    center_idx = [rng.randrange(len(plans))]
    dmin = np.full(len(plans), np.inf)
    for j in range(n_peaks):
        column = d2[:, j] = squared_distances(plans[center_idx[j]])
        if j + 1 < n_peaks:
            np.minimum(dmin, np.sqrt(column), out=dmin)
            dmin[center_idx[j]] = -1.0
            center_idx.append(int(np.argmax(dmin)))

    seps = np.sqrt(d2[center_idx])
    np.fill_diagonal(seps, np.inf)
    # Basin width relative to the closest center pair: wide enough that the
    # tails guide the search, narrow enough that basins stay distinct optima.
    sigma = float(seps.min()) / 2.5
    depths = [1.0 - 0.5 * j / (n_peaks - 1) for j in range(n_peaks)]
    kernel = d2
    np.negative(kernel, out=kernel)
    np.divide(kernel, sigma**2, out=kernel)
    np.exp(kernel, out=kernel)

    tables = []
    option_names = tuple(o.name for o in space.options)
    for env_id, offset in (("A", 0), ("B", peak_shift)):
        h = np.asarray([depths[(j + offset) % n_peaks] for j in range(n_peaks)])
        performance = kernel @ h
        np.negative(performance, out=performance)
        performance += np.asarray([rng.random() for _ in plans]) * 1e-9
        env = Environment(id=env_id, direction="minimize")
        tables.append(MeasurementTable(env, option_names,
                                       dict(zip(plans, performance.tolist()))))
    return tables[0], tables[1]


def _row_sum(terms: list[np.ndarray]) -> np.ndarray:
    """The sum of `terms`, arrays that broadcast together, added in the order
    in which numpy (2.4.6, as CI pins it) sums the n values of one contiguous
    row in ``ndarray.sum(axis=-1)``: one after another below 8 values; from
    8 up, eight running sums of every eighth value, combined pairwise, and
    then the values past the last multiple of 8 one by one. Given a matrix's
    columns, it returns the row sums bit for bit (a row of negative zeros
    aside, which numpy sums to +0.0). No term is written to."""
    n = len(terms)
    if n < 8:
        return _add_all(terms[0], terms[1:])
    done = n - n % 8
    partial = [_add_all(terms[j], terms[j + 8:done:8]) for j in range(8)]
    total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
        (partial[4] + partial[5]) + (partial[6] + partial[7]))
    return _add_all(total, terms[done:])


def _add_all(total: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
    """`total` plus each of `terms` in turn. The first add makes a new array,
    and later adds go into it in place while it has the term's shape, so
    neither `total` nor a term is written to."""
    for i, term in enumerate(terms):
        if i and total.shape == term.shape:
            np.add(total, term, out=total)
        else:
            total = total + term
    return total

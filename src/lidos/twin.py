"""Dataset-backed measurement oracle with per-environment caching and counting."""

from __future__ import annotations

import bisect
import csv
import functools
import itertools
import math
import random
import warnings
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .space import ConfigSpace, OptionSpec, Plan

DIRECTIONS = ("minimize", "maximize")

# The most plans `synth_landscape` enumerates: 13 times the 78,125 of seven
# options of five values.
SYNTH_MAX_PLANS = 2**20
# The most basin values (plans x peaks) it evaluates: over 5 times the
# 3,125,000 of 40 peaks over those 78,125 plans.
SYNTH_MAX_DISTANCES = 2**24
# Plans per block of `synth_landscape`'s jitter draws.
_JITTER_BLOCK = 4096
# Data lines per block of `load_measurements`' parse, and rows per block of
# `MeasurementTable.rows`' build.
_LOAD_BLOCK = 4096

# Bytes one table spends per space on its nearest-plan search state: the
# scan's term tables, an equal share per option, and a nearest-row map's
# build, its grid arrays and the work of each pass.
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
    """Plan -> raw performance lookup for a single environment, stored as
    sorted columns: per option its domain, the sorted distinct values of its
    column, and an (options, rows) array `codes` of each row's index in each
    domain, in the smallest unsigned dtype; and the rows' values as one
    float64 vector. The rows are distinct and in lexicographic plan order.

    The rows are read-only after construction, so tables are safely shared
    across runs. The plan -> value dict `rows` is built at its first use, in
    the process that measures; loading and checking a table need the columns
    alone. The nearest-plan search builds its state per space at the first
    search under it: a map of the nearest row of every plan of the domain grid
    where `_nearest_map` admits the grid, and the scan's columns, term
    tables and memo only once a plan the map does not answer is searched.
    """

    def __init__(self, environment: Environment, option_names: tuple[str, ...],
                 domains: tuple[tuple[int, ...], ...], codes: np.ndarray, values: np.ndarray):
        """Columns as described above, unchecked; `from_rows` builds and
        checks a table from a dict."""
        self.environment = environment
        self.option_names = option_names
        self.domains = domains
        self.codes = codes
        self.values = values
        self._validated_for: ConfigSpace | None = None
        # Nearest-plan search state, per space searched under: the sorted
        # plans; the nearest-row map, an int64 array of the sorted index of
        # each grid plan's nearest row, and each option's value -> grid
        # offset, where `_nearest_map` builds them; and the scan's state,
        # built at the first query the map does not answer: one column per
        # option in the space's distance dtype, two row-length buffers every
        # scan reuses (the distance sum and an untabled term), each option's
        # term table or None, and the memo.
        self._nearest_space: ConfigSpace | None = None
        self._sorted_plans: list[Plan] = []
        self._map: np.ndarray | None = None
        self._offsets: list[dict[int, int]] = []
        self._columns: np.ndarray | None = None
        self._sum = self._scratch = None
        self._terms: list[np.ndarray | None] = []
        self._nearest: dict[Plan, Plan] = {}

    @classmethod
    def from_rows(cls, environment: Environment, option_names: tuple[str, ...],
                  rows: dict[Plan, float]) -> MeasurementTable:
        """The table of a plan -> raw value dict."""
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
        columns = []
        for column in zip(*rows):
            try:
                columns.append(_coded(np.array(column, np.int64)))
            except OverflowError:
                columns.append(_coded(np.array(column, object)))
        return _sorted_table(environment, option_names,
                             [(columns, np.fromiter(rows.values(), np.float64, len(rows)))])

    @functools.cached_property
    def rows(self) -> dict[Plan, float]:
        """Plan -> raw value, in sorted plan order, built `_LOAD_BLOCK` rows
        at a time, so no list of a whole column is held beside the dict."""
        domains = [np.array(domain, object) for domain in self.domains]
        rows: dict[Plan, float] = {}
        for start in range(0, len(self), _LOAD_BLOCK):
            block = slice(start, start + _LOAD_BLOCK)
            columns = [domain[column[block]].tolist()
                       for domain, column in zip(domains, self.codes)]
            rows.update(zip(zip(*columns), self.values[block].tolist()))
        return rows

    def __len__(self) -> int:
        return len(self.values)

    def implied_space(self) -> ConfigSpace:
        """Space whose domains are the sorted distinct values per option column."""
        return ConfigSpace(options=tuple(
            OptionSpec(name=name, domain=domain)
            for name, domain in zip(self.option_names, self.domains)))

    def validate_space(self, space: ConfigSpace) -> None:
        """Check every row key is a valid plan of `space` (cached per space).

        Each option's domain is checked against the space's; the rows are
        walked only to name the first plan outside the space."""
        if self._validated_for == space:
            return
        if len(space.options) != len(self.option_names) or any(
                not set(domain) <= set(option.domain)
                for option, domain in zip(space.options, self.domains)):
            for plan in self.rows:
                if not space.validate_plan(plan):
                    raise ValueError(
                        f"table for {self.environment.id!r} holds plan {plan!r} "
                        "outside the config space"
                    )
        self._validated_for = space

    def nearest(self, plan: Plan, space: ConfigSpace) -> Plan:
        """The measured plan nearest to `plan` by the integer distance
        ``sum_j space.weights[j] * (row[j] - plan[j]) ** 2``; ties go to the
        lexicographically lowest plan.

        The rows must be plans of `space`, and `plan` one value per option
        within its [min, max], or this raises ValueError. Two searches serve
        it, each exact. Where `_nearest_map` admits the space's grid, the
        first search under the space maps every grid plan to its nearest
        row, and a plan of domain values is then one lookup. Any other plan,
        or any plan under a space the map does not admit, is scanned: every
        distance fits `space.distance_dtype`, the dtype of the columns, and in
        any order the first minimum is the answer. Where the distances are
        int64, an option whose terms for all its domain values fit its equal
        share of `_TERM_CACHE_BYTES` has them in one table, built with the
        columns. Scanned answers are memoized per space.
        """
        if space is not self._nearest_space and space != self._nearest_space:
            self.validate_space(space)
            self._sorted_plans = list(self.rows)
            self._map, self._offsets = _nearest_map(space, self.domains, self.codes)
            self._columns = self._sum = self._scratch = None
            self._terms = []
            self._nearest = {}
            # Last, so a build that raises leaves the space to be built again.
            self._nearest_space = space
        if self._map is not None and len(plan) == len(self._offsets):
            try:
                cell = sum(map(dict.__getitem__, self._offsets, plan))
                return self._sorted_plans[self._map[cell]]
            except KeyError:
                pass
        found = self._nearest.get(plan)
        if found is not None:
            return found
        if len(plan) != len(space.options):
            raise ValueError(f"plan {plan!r} does not give each option of the space one value")
        if self._columns is None:
            columns = np.array([np.asarray(domain, space.distance_dtype)[column]
                                for domain, column in zip(self.domains, self.codes)])
            share = _TERM_CACHE_BYTES // len(space.options)
            # numpy elides the temporaries of the square and the product where
            # it can, so the build holds one table at a time.
            self._terms = [
                weight * np.subtract.outer(option.domain, column) ** 2
                if space.distance_dtype == "int64" and len(option.domain) * column.nbytes <= share
                else None for option, weight, column in zip(space.options, space.weights, columns)]
            self._sum, self._scratch = (np.empty(len(self), space.distance_dtype)
                                        for _ in range(2))
            # Last, so a build that raises leaves the scan to be built again.
            self._columns = columns
        dist = self._sum
        np.copyto(dist, self._term(0, plan[0], space.weights[0]))
        for option in range(1, len(plan)):
            np.add(dist, self._term(option, plan[option], space.weights[option]), out=dist)
        found = self._nearest[plan] = self._sorted_plans[int(dist.argmin())]
        return found

    def _term(self, option: int, value: int, weight: int) -> np.ndarray:
        """The column of ``weight * (column - value) ** 2`` for one option:
        a row of the option's term table for a domain value of a tabled
        option, and otherwise made in the scratch buffer the next untabled
        term overwrites; a value outside the option's [min, max] raises
        ValueError."""
        spec, table = self._nearest_space.options[option], self._terms[option]
        if table is not None:
            i = bisect.bisect_left(spec.domain, value)
            if i < len(spec.domain) and spec.domain[i] == value:
                return table[i]
        if not spec.domain[0] <= value <= spec.domain[-1]:
            raise ValueError(f"value {value} of option {spec.name!r} is outside its "
                             f"[min, max], [{spec.domain[0]}, {spec.domain[-1]}]")
        term = np.subtract(self._columns[option], value, out=self._scratch)
        np.square(term, out=term)
        return np.multiply(term, weight, out=term)


def _nearest_map(space: ConfigSpace, domains: tuple[tuple[int, ...], ...], codes: np.ndarray,
                 ) -> tuple[np.ndarray | None, list[dict[int, int]]]:
    """The sorted index of the nearest of a table's rows, given by its
    `domains` and `codes`, to every plan of the space's domain grid, listed
    by the plan's flat position in the grid's C order, and per option the
    map of each domain value to its offset in that position; or None and no
    offsets where the map would not be exact or would not fit.

    Each grid cell holds an int64 key ``distance << b | row``, with ``b =
    rows.bit_length()``: the row's sorted index, so the least key is
    the nearest row and, on a tie, the lowest plan. A row's own cell starts
    at distance 0, and every other cell at a sentinel above every real key;
    one min-plus pass per option then gives each cell the least, over the
    cells that differ from it in that option alone, of their key plus the
    option's weighted squared step, as in Felzenszwalb and Huttenlocher's
    separable distance transform. The map is built only where

    - the distances are int64, and ``(options + 1) * L << b`` is below 2**62,
      with L = lcm(span**2), so no key, sentinel or sum of a pass overflows;
    - at 8 B a cell, both the build's grid arrays, at most three at once,
      and a pass's work, each cell once per value of its option, fit
      `_TERM_CACHE_BYTES`, so no wide domain makes the build quadratic.
    """
    shape = tuple(len(option.domain) for option in space.options)
    cells = math.prod(shape)
    rows = codes.shape[1]
    bits = rows.bit_length()
    sentinel = (len(shape) + 1) * math.lcm(
        *(option.span**2 for option in space.options if option.span)) << bits
    if not (space.distance_dtype == "int64" and sentinel < 2**62
            and cells * max(3, *shape) * 8 <= _TERM_CACHE_BYTES):
        return None, []
    offsets, strides = [], []
    stride = cells
    for option in space.options:
        stride //= len(option.domain)
        strides.append(stride)
        offsets.append({value: i * stride for i, value in enumerate(option.domain)})
    keys = np.full(cells, sentinel, np.int64)
    # A row's position: per option, the offset of each table domain value,
    # taken at the row's code.
    keys[sum(np.array([offset[value] for value in domain], np.int64)[column]
             for offset, domain, column in zip(offsets, domains, codes))] = np.arange(rows)
    for option, weight, stride in zip(space.options, space.weights, strides):
        if not weight:
            continue
        # The cells as (earlier options, this option's values, later
        # options): each target value takes the least over the source values
        # of the source's key plus the weighted squared step between them.
        values = np.asarray(option.domain, np.int64)
        source = keys.reshape(-1, len(values), stride)
        keys, buffer = np.full_like(source, sentinel), np.empty_like(source)
        for i, value in enumerate(option.domain):
            steps = weight * (values - value) ** 2 << bits
            np.minimum(keys, np.add(source[:, i:i + 1], steps[:, None], out=buffer), out=keys)
        del source, buffer
    keys = keys.reshape(-1)
    np.bitwise_and(keys, (1 << bits) - 1, out=keys)
    return keys, offsets


def load_measurements(path: str | Path, env: Environment) -> MeasurementTable:
    """Load one environment's measurement CSV.

    Header is ``opt1,...,optN,performance``; one row per plan. Duplicate rows
    are tolerated only when their performance values agree. A UTF-8
    byte-order mark is skipped. `_parsed_table` reads the data lines; where
    it refuses them, the row walk reads them again, cell by cell, and names
    the line of the first error.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
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
            table = _parsed_table(fh, env, option_names)
            if table is not None:
                return table
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
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
    return MeasurementTable.from_rows(env, option_names, rows)


def _parsed_table(fh, env: Environment, option_names: tuple[str, ...]) -> MeasurementTable | None:
    """The table of the lines left in `fh`, parsed by `np.loadtxt` a block of
    `_LOAD_BLOCK` lines at a time; or None where a line could hold a cell
    past the csv module's field limit, the parse refuses a line or warns, a
    value is not finite, no line holds a row or two equal plans have
    different values. Each block is coded (see `_coded`) before the next is
    read."""
    dtype = np.dtype([("", np.int64)] * len(option_names) + [("", np.float64)])
    *options, value = dtype.names
    parts = []
    # A warning is an error here, so a numpy that reads a cell with one, as
    # some read `1.5` for an integer, sends the file to the row walk.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while lines := list(itertools.islice(fh, _LOAD_BLOCK)):
            if max(map(len, lines)) > csv.field_size_limit():
                return None
            try:
                block = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
            except (ValueError, OverflowError, Warning):
                return None
            if not np.isfinite(block[value]).all():
                return None
            parts.append(([_coded(block[name]) for name in options], block[value].copy()))
    return _sorted_table(env, option_names, parts) if parts else None


def _coded(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column's sorted distinct values, and each cell's index among them in
    the smallest unsigned dtype."""
    domain, codes = np.unique(column, return_inverse=True)
    return domain, codes.astype(np.min_scalar_type(len(domain) - 1))


def _sorted_table(env: Environment, option_names: tuple[str, ...], parts,
                  ) -> MeasurementTable | None:
    """The table of `parts`, blocks of rows each given as its coded columns
    and its values: the blocks' domains merged, the rows sorted and each run
    of equal plans kept once, with its last value, as the row walk's dict
    keeps it; or None where equal plans have different values."""
    # With a flag, np.unique skips its masked-array check, which imports numpy.ma.
    domains = [np.unique(np.concatenate([coded[j][0] for coded, _ in parts]),
                         return_counts=True)[0]
               for j in range(len(option_names))]
    dtype = np.min_scalar_type(max(map(len, domains)) - 1)
    codes = np.concatenate([
        np.array([np.searchsorted(domain, local).astype(dtype)[index]
                  for domain, (local, index) in zip(domains, coded)]) for coded, _ in parts],
        axis=1)
    values = np.concatenate([values for _, values in parts])
    order = np.lexsort(codes[::-1])
    codes, values = codes[:, order], values[order]
    same = (codes[:, 1:] == codes[:, :-1]).all(axis=0)
    if (same & (values[1:] != values[:-1])).any():
        return None
    last = np.append(~same, True)
    return MeasurementTable(env, option_names, tuple(tuple(domain.tolist()) for domain in domains),
                            codes[:, last], values[last])


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
        # The current table's rows and sign, read for every plan measured.
        self._rows: dict[Plan, float] = {}
        self._sign = 1.0

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
        table = self.tables[env_id]
        self.current = table.environment
        self._rows, self._sign = table.rows, self.current.sign
        self._cache = set()

    def measure(self, plan: Plan) -> float:
        try:
            raw = self._rows[plan]
        except KeyError:
            raise KeyError(
                f"plan {plan!r} has no measurement under environment "
                f"{self.current_table().environment.id!r}"
            ) from None
        if plan not in self._cache:
            self._cache.add(plan)
            self.counter += 1
        return raw * self._sign

    def coverage(self) -> float:
        return len(self._cache) / len(self.current_table())

    def repair(self, plan: Plan) -> Plan:
        """Map a plan to the nearest measured plan of the current environment.

        Plans already in the table pass through; others go to the table's
        nearest-plan search under the space's normalized distance, which the
        table answers from its nearest-row map or memoizes (off-table
        offspring recur a lot on sparse datasets).
        """
        if plan in self._rows:
            return plan
        return self.current_table().nearest(plan, self.space)


def synth_landscape(n_options: int = 6, domain_size: int = 5, n_peaks: int = 40,
                    peak_shift: int = 1, noise_seed: int = 0,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Generate two fully enumerated environments over one space: the values
    of environments A and B as float64 arrays in product order, where plan i
    is ``np.unravel_index(i, (domain_size,) * n_options)``.

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

    rng = random.Random(noise_seed)
    steps = np.arange(domain_size, dtype=np.int64)
    # Option j's axis of the product grid, whose C order is the plans' order.
    axes = [(1,) * j + (domain_size,) + (1,) * (n_options - 1 - j) for j in range(n_options)]

    def grids(index: int, per_step: np.ndarray) -> list[np.ndarray]:
        """Per option j, `per_step` at the step count ``|v - c_j|`` of each
        value v to the plan at `index` in product order, along the axis of j."""
        center = np.unravel_index(index, (domain_size,) * n_options)
        return [per_step[abs(steps - c)].reshape(axis) for c, axis in zip(center, axes)]

    # Greedy max-min placement keeps the basins well separated; argmax ties go
    # to the lexicographically lowest plan, so the layout is deterministic
    # given the seed (only the first center is drawn at random). Distances are
    # exact whole squared steps; each pick's `nearest` value is its distance
    # to the closest earlier center, so the least is the closest pair's.
    squares = steps**2
    center_idx = [rng.randrange(size)]
    nearest = np.full(size, np.iinfo(np.int64).max)
    gap = math.inf
    while len(center_idx) < n_peaks:
        np.minimum(nearest, sum(grids(center_idx[-1], squares)).reshape(-1), out=nearest)
        nearest[center_idx[-1]] = -1
        center_idx.append(int(nearest.argmax()))
        gap = min(gap, int(nearest[center_idx[-1]]))
    del nearest

    # Basin width relative to the closest center pair: wide enough that the
    # tails guide the search, narrow enough that basins stay distinct optima.
    # A width of sqrt(gap) / 2.5 steps gives a basin of exp(-6.25 t / gap) at
    # t squared steps: a product over options of `factor[|v_j - c_j|]`, each a
    # product of exps that `decimal` computes exactly, one per set bit of the
    # squared step count, so the bits are the same on every machine.
    factor = np.ones(domain_size)
    for bit in range(int(squares[-1]).bit_length()):
        np.multiply(factor, float((Decimal(-25 << bit) / (4 * gap)).exp()), out=factor,
                    where=(squares >> bit) & 1 == 1)
    depths = [1.0 - 0.5 * j / (n_peaks - 1) for j in range(n_peaks)]
    performances = [np.zeros(size), np.zeros(size)]
    for j, index in enumerate(center_idx):
        basin = math.prod(grids(index, factor)).reshape(-1)
        for performance, offset in zip(performances, (0, peak_shift)):
            performance -= depths[(j + offset) % n_peaks] * basin
    del basin

    # The jitter is drawn for A's plans and then B's, in product order, a
    # block at a time, so no list of every plan's draw is ever built.
    for performance in performances:
        for start in range(0, size, _JITTER_BLOCK):
            block = performance[start:start + _JITTER_BLOCK]
            block += np.fromiter(iter(rng.random, None), float, len(block)) * 1e-9
    return performances[0], performances[1]


def synth_option_names(n_options: int) -> tuple[str, ...]:
    """The option columns of a synthetic landscape: o1, o2, ..."""
    return tuple(f"o{i + 1}" for i in range(n_options))


def synth_tables(n_options: int = 6, domain_size: int = 5, **shape,
                 ) -> tuple[MeasurementTable, MeasurementTable]:
    """`synth_landscape`'s environments A and B as minimize measurement
    tables; `shape` takes its other arguments."""
    values = synth_landscape(n_options, domain_size, **shape)
    # Product order is the plans' sorted order.
    codes = np.indices((domain_size,) * n_options,
                       np.min_scalar_type(domain_size - 1)).reshape(n_options, -1)
    table_a, table_b = (
        MeasurementTable(Environment(id=env_id), synth_option_names(n_options),
                         (tuple(range(domain_size)),) * n_options, codes, env_values)
        for env_id, env_values in zip("AB", values))
    return table_a, table_b

"""Reading `traces.csv` back, checked row by row and against its scenario
(see `lidos.harness.read_traces_csv`, which alone imports this module, so
`lidos run` never compiles it).

A file is *plain* when it holds the exact header bytes and then only ASCII
lines, each ended by a newline, with no `"`, carriage return or NUL byte and
none longer than `csv.field_size_limit()`. That is what the trace writer
writes whenever every id is ASCII and needs no quoting, and there
`csv.reader` would split each line at its commas and nothing else, so a
plain file is split with `str.split`, a block of lines at a time. Any other
file is read by `csv.reader`, which alone reads quoted cells, CRLF line ends
and non-ASCII ids, and refuses a field past the limit. A plain file of
enough blocks is parsed in forked workers, each over its own run of whole
blocks."""

from __future__ import annotations

import csv
import gc
from functools import partial
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import planner
from .baselines import PLANNER_KINDS
from .fork import run_tasks
from .planner import (ROW_DTYPE, TRACE_DTYPE, TRACE_HEADER, RunTrace, derived_columns,
                      planner_labels, running_count)
from .twin import utf8_error

_HEADER = (",".join(TRACE_HEADER) + "\n").encode()
# Bytes per read of the plain test's one pass over the file.
_SCAN_CHUNK = 1 << 20
# The fewest blocks worth a forked worker. Measured on a 2-vCPU VM: a block
# parses in about 6 ms, two forks, pickles and reaps take 3 ms, and a worker
# parses 1.7 times slower beside its sibling, so two workers beat one in 10
# of 25 reads of 4 blocks, 15 of 8 and 22 of 10.
MIN_RUN_BLOCKS = 4


def read_traces(path: str | Path, spec, block: int, workers: int
                ) -> tuple[tuple[str, ...], dict[tuple[str, int], RunTrace]]:
    """`lidos.harness.read_traces_csv`, `block` records a block. A plain
    file of at least `MIN_RUN_BLOCKS` blocks per worker is cut into at most
    `workers` runs of whole blocks, each parsed in its own forked worker (see
    `lidos.fork.run_tasks`). Each run codes the labels and environments in
    the order they first appear in it, and the runs' codes are mapped, in
    file order, to the whole file's. Each block is the one the serial parse
    reads, and the earliest failing run's failure is raised, so the result,
    or the first error, is the same for any count."""
    pieces, labels, env_ids = _read_pieces(path, block, workers)
    if not pieces:
        return (), {}
    lines, events, reps, label_codes = map(np.concatenate, zip(*pieces))
    del pieces

    # A list that gives label `kind@n` gives n labels of that kind, so every
    # label of a file is among those of a list with each kind that often.
    known = {label for label, _ in planner_labels(PLANNER_KINDS * len(labels))}
    for code, label in enumerate(labels):
        if label not in known:
            _refuse(path, lines, label_codes == code, f"unknown planner label {label!r}")

    # Group by (label, rep); the sort is stable, so each group keeps file order.
    order = np.lexsort((reps, label_codes))
    events, label_codes, reps = events[order], label_codes[order], reps[order]
    first_of_group = np.concatenate(([True], (np.diff(label_codes) | np.diff(reps)) != 0))
    starts = [*np.flatnonzero(first_of_group).tolist(), len(events)]
    grouped_lines = lines[order]
    refuse = partial(_refuse, path, grouped_lines)

    measured = ~(events["adaptation_sent"] | events["env_change"])
    counted, best = derived_columns(events, first_of_group)
    refuse(events["measurement_index"] != counted, lambda at: (
        "measurement_index must count the trace's measurement rows: "
        f"expected {counted[at]}, got {events['measurement_index'][at]}"))
    declared = {source.environment.id for source in spec.environments}
    for env_id in env_ids:
        if env_id not in declared:
            raise ValueError(f"{path}: environment {env_id!r} is not declared in the scenario")
    legs = [leg.env_id for leg in spec.legs]
    leg_of = running_count(events["env_change"], first_of_group)
    last_of_group = np.append(first_of_group[1:], True)
    refuse(last_of_group & (leg_of != len(legs) - 1), lambda at: (
        f"trace of {labels[label_codes[at]]!r} repetition {reps[at]} ends in leg "
        f"{leg_of[at] + 1} of the scenario's {len(legs)}"))
    # A leg ends at the change row that opens the next one, or at the trace's
    # last row. Per row, `empty` is the number of a leg that ends there with
    # no measurement row, or 0: at a change row the leg before it, counted
    # by the row before, and at a trace's last row its own leg.
    in_leg = running_count(measured, first_of_group | events["env_change"])
    before = np.where(first_of_group, 0, np.roll(in_leg, 1))
    empty = np.where(events["env_change"] & (before == 0), leg_of,
                     np.where(last_of_group & (in_leg == 0), leg_of + 1, 0))
    refuse(empty, lambda at: (
        f"leg {empty[at]} of {labels[label_codes[at]]!r} repetition {reps[at]} "
        "holds no measurement row"))
    leg_env = np.array([env_ids.index(env_id) if env_id in env_ids else -1 for env_id in legs])
    refuse(events["env"] != leg_env[leg_of], lambda at: (
        f"environment {env_ids[events['env'][at]]!r} in leg {leg_of[at] + 1}, "
        f"where the scenario runs {legs[leg_of[at]]!r}"))
    population = planner.POPULATION_SIZE
    budget = np.array([leg.measurement_budget for leg in spec.legs])[leg_of]
    refuse(measured & (in_leg >= budget + population), lambda at: (
        f"leg {leg_of[at] + 1} reaches {in_leg[at]} measurement rows, but a leg with a budget "
        f"of {budget[at]} stops before its budget plus one population ({population})"))
    # A measurement row records the least ft of its leg so far, and an
    # adaptation row sends that best as both its ft and its best_ft.
    sent = events["adaptation_sent"]
    ft, best_ft = events["ft"], events["best_ft"]
    refuse((measured | sent) & (best_ft != best) | sent & (ft != best),
           lambda at: (
               "an adaptation row's ft and best_ft must be the least ft of its leg so far, "
               f"{float(best[at])}; got {float(ft[at])} and {float(best_ft[at])}" if sent[at]
               else "best_ft must be the least ft of its leg so far, "
               f"{float(best[at])}; got {float(best_ft[at])}"))
    # The traces keep the decided columns, and derive the checked two.
    rows = np.empty(len(events), ROW_DTYPE)
    for name in ROW_DTYPE.names:
        rows[name] = events[name]
    return labels, {(labels[label_codes[start]], int(reps[start])):
                    RunTrace(rows[start:end], env_ids) for start, end in zip(starts, starts[1:])}


def _read_pieces(path: str | Path, block: int, workers: int):
    """Every block's `_piece`, in file order, with its codes those of the
    whole file's labels and environment ids, which follow."""
    # The parse makes one string per cell and no reference cycles; pausing
    # the cyclic collector spares it repeated passes over them.
    collecting = gc.isenabled()
    gc.disable()
    try:
        bounds = _plain_bounds(path, block)
        if bounds is None:
            runs = [_parse(path, _csv_blocks(path, block))]
        else:
            def parse_runs(share):
                """Each run `(first, stop)` of `share`, blocks `first` to
                `stop - 1`, parsed: the body of each worker."""
                for first, stop in share:
                    yield _parse(path, _plain_blocks(path, bounds, first, stop, block))

            blocks = len(bounds) - 1
            count = max(1, min(workers, blocks // MIN_RUN_BLOCKS))
            runs = run_tasks(parse_runs, [(blocks * r // count, blocks * (r + 1) // count)
                                          for r in range(count)],
                             count, "blocks of traces.csv")
    finally:
        if collecting:
            gc.enable()
    label_code: dict[str, int] = {}
    env_code: dict[str, int] = {}
    for run_pieces, run_labels, run_envs in runs:
        to_label, to_env = _coded(label_code, run_labels), _coded(env_code, run_envs)
        for _, events, _, codes in run_pieces:
            events["env"] = to_env[events["env"]]
            codes[:] = to_label[codes]
    return ([piece for run_pieces, _, _ in runs for piece in run_pieces],
            tuple(label_code), tuple(env_code))


def _plain_bounds(path: str | Path, block: int) -> list[int] | None:
    """The byte offsets that cut a plain file into blocks of `block` lines
    after the header: the header's end, every `block`-th line end after it,
    and the file's end. None if the file is not plain. One pass, a chunk at
    a time, holds no more of the file than one chunk."""
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        if fh.read(len(_HEADER)) != _HEADER:
            return None
        bounds = [len(_HEADER)]
        last = read = len(_HEADER)  # just past the last line end; bytes read
        ended = 0  # lines ended after the header
        while chunk := fh.read(_SCAN_CHUNK):
            if not chunk.isascii() or b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
                return None
            ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + (read + 1)
            read += len(chunk)
            if len(ends):
                # A line's length, its newline included.
                if np.diff(ends, prepend=last).max() > limit + 1:
                    return None
                bounds += ends[(-ended - 1) % block::block].tolist()
                ended += len(ends)
                last = int(ends[-1])
    if last != read:  # text after the last newline
        return None
    if bounds[-1] != read:
        bounds.append(read)
    return bounds


def _plain_blocks(path: str | Path, bounds: list[int], first: int, stop: int, block: int):
    """Yield, per block `first` to `stop - 1` of a plain file cut at
    `bounds`, what `_csv_blocks` yields for it: the line number of every
    non-blank line and the lines' cells as eight columns."""
    width = len(TRACE_HEADER)
    with open(path, "rb") as fh:
        fh.seek(bounds[first])
        for k in range(first, stop):
            rows = fh.read(bounds[k + 1] - bounds[k]).decode("ascii").split("\n")
            rows.pop()  # what follows the block's last newline
            lines = np.arange(2 + k * block, 2 + k * block + len(rows))
            if "" in rows:
                lines = lines[[bool(row) for row in rows]]
                rows = [row for row in rows if row]
            if set(map(str.count, rows, repeat(","))) - {width - 1}:
                for line, row in zip(lines, rows):
                    if row.count(",") != width - 1:
                        raise ValueError(f"{path}:{line}: expected {width} cells, "
                                         f"got {row.count(',') + 1}")
            if rows:
                # Only the columns are held while the block is checked.
                cells = ",".join(rows).split(",")
                del rows
                columns = [cells[i::width] for i in range(width)]
                del cells
                yield lines, columns


def _csv_blocks(path: str | Path, block: int):
    """Yield, per block of up to `block` records after the header, the line
    number of every non-blank record and the records' cells as eight
    columns."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader, ()))
            if header != TRACE_HEADER:
                raise ValueError(f"{path}: unexpected trace header {header!r}")
            first = 2
            while records := list(islice(reader, block)):
                # A record's line is its position after the header.
                lines = np.arange(first, first + len(records))
                first += len(records)
                if set(map(len, records)) != {len(TRACE_HEADER)}:
                    lines = lines[[bool(row) for row in records]]
                    records = [row for row in records if row]
                    for line, row in zip(lines, records):
                        if len(row) != len(TRACE_HEADER):
                            raise ValueError(f"{path}:{line}: expected "
                                             f"{len(TRACE_HEADER)} cells, got {len(row)}")
                if records:
                    yield lines, tuple(zip(*records))
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise utf8_error(path, exc) from None


def _parse(path: str | Path, blocks):
    """Each of `blocks` checked as `_piece`s, and the labels and environment
    ids in the order they first appear, which the pieces' codes index. Each
    block becomes arrays before the next is read, so no more than one
    block's cells are held."""
    label_code: dict[str, int] = {}
    env_code: dict[str, int] = {}
    pieces = [_piece(path, lines, columns, label_code, env_code) for lines, columns in blocks]
    return pieces, tuple(label_code), tuple(env_code)


def _piece(path, lines, columns, label_code: dict[str, int], env_code: dict[str, int]):
    """One block's rows, checked, as its lines, events, reps and label codes."""
    label_c, rep_c, index_c, env_c, ft_c, best_c, sent_c, change_c = columns
    events = np.empty(len(lines), TRACE_DTYPE)
    reps = _column(path, lines, rep_c, int, np.int64)
    events["measurement_index"] = _column(path, lines, index_c, int, np.int64)
    _written(path, lines, "rep", rep_c)
    _written(path, lines, "measurement_index", index_c)
    for name, cells in (("adaptation_sent", sent_c), ("env_change", change_c)):
        if not set(cells) <= {"0", "1"}:
            _refuse(path, lines, [cell not in ("0", "1") for cell in cells],
                    f"{name} must be 0 or 1")
        # Every cell is now a single ASCII digit.
        events[name] = np.frombuffer("".join(cells).encode(), np.uint8) == ord("1")
    change = events["env_change"]
    _refuse(path, lines, events["adaptation_sent"] & change,
            "a row cannot be both an adaptation and an environment change")
    for name, cells, repeats in (("ft", ft_c, False), ("best_ft", best_c, True)):
        events[name] = _column(path, lines, [cell or "nan" for cell in cells], float,
                               np.float64, repeats)
        _refuse(path, lines, ~change & ~np.isfinite(events[name]),
                f"a measurement or adaptation row needs a finite {name}")
        # The other rows are known to be non-empty now.
        if cells.count("") != change.sum():
            _refuse(path, lines, change & np.array([cell != "" for cell in cells]),
                    f"an environment-change row leaves {name} empty")
        _written(path, lines, name, cells, b"0123456789-+.e")
    events["env"] = _coded(env_code, env_c)
    return lines, events, reps, _coded(label_code, label_c)


def _refuse(path, lines, mask, message):
    """Refuse the earliest of `lines` that `mask` flags; `message` is the
    text, or maps the flagged position to it."""
    found = np.flatnonzero(mask)
    if len(found):
        at = found[np.argmin(lines[found])]
        text = message(at) if callable(message) else message
        raise ValueError(f"{path}:{lines[at]}: {text}")


def _column(path, lines, cells, convert, dtype, repeats=True):
    """`cells` through `convert`, as an array of `dtype`. Where cells
    `repeats`, as reps, indices and bests do, each distinct cell is
    converted once; most `ft` cells are distinct, and a dict of them costs
    more than it saves."""
    try:
        value_of = convert
        if repeats:
            distinct = set(cells)
            value_of = dict(zip(distinct, map(convert, distinct))).__getitem__
        return np.fromiter(map(value_of, cells), dtype, len(cells))
    except (ValueError, OverflowError):
        for line, cell in zip(lines, cells):
            try:
                np.array(convert(cell), dtype)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
        raise


def _written(path, lines, name, cells, chars=b"0123456789"):
    """Refuse the earliest of `cells` that holds a character other than the
    ASCII `chars` a trace writer writes in this number column. One pass over
    the joined cells serves a block that holds none."""
    if "".join(cells).encode().translate(None, chars):
        _refuse(path, lines, [bool(cell.encode().translate(None, chars)) for cell in cells],
                lambda at: f"{name} holds a character no trace writer writes: {cells[at]!r}")


def _coded(code_of: dict[str, int], cells):
    """Each cell's code in `code_of`, where a cell it lacks takes the next
    code, so codes follow the order of first appearance."""
    for cell in dict.fromkeys(cells):
        code_of.setdefault(cell, len(code_of))
    return np.fromiter(map(code_of.__getitem__, cells), np.int64, len(cells))

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lidos.twin as twin_module
from lidos.twin import (
    CyberTwin,
    Environment,
    MeasurementTable,
    load_measurements,
    synth_landscape,
    synth_tables,
)

from conftest import make_space, make_table, make_twin, squared_distance


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadMeasurements:
    def test_two_row_file(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,b,performance\n0,1,3.5\n1,2,4.5\n")
        table = load_measurements(path, Environment("e"))
        assert len(table) == 2
        assert table.rows[(0, 1)] == 3.5
        assert table.option_names == ("a", "b")

    def test_implied_space_sorted_distinct(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,b,perf\n1,9,0\n0,9,1\n1,2,2\n")
        table = load_measurements(path, Environment("e"))
        space = table.implied_space()
        assert space.options[0].domain == (0, 1)
        assert space.options[1].domain == (2, 9)

    def test_conflicting_duplicate_rows(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n0,1.0\n0,2.0\n")
        with pytest.raises(ValueError, match="conflicting"):
            load_measurements(path, Environment("e"))

    def test_identical_duplicate_rows_collapse(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n0,1.0\n0,1.0\n1,2.0\n")
        table = load_measurements(path, Environment("e"))
        assert len(table) == 2

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\nzero,1.0\n")
        with pytest.raises(ValueError, match="m.csv:2"):
            load_measurements(path, Environment("e"))

    def test_missing_performance_column(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a\n0\n")
        with pytest.raises(ValueError, match="performance column"):
            load_measurements(path, Environment("e"))

    def test_fractional_option_value(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n0.5,1.0\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_measurements(path, Environment("e"))

    def test_integral_float_option_accepted(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n1.0,3.0\n")
        table = load_measurements(path, Environment("e"))
        assert table.rows[(1,)] == 3.0

    def test_large_integer_option_exact(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,perf\n9007199254740993,1.0\n3.0,2.0\n")
        table = load_measurements(path, Environment("e"))
        assert set(table.rows) == {(9007199254740993,), (3,)}

    @pytest.mark.parametrize("cell", ["2.5", "inf", "-inf", "nan", "1e400", "1e20",
                                      "1.0000000000000001", "4503599627370496.5",
                                      "1e-400"])
    def test_inexact_or_non_finite_option_rejected(self, tmp_path, cell):
        path = write_csv(tmp_path, "m.csv", f"a,perf\n0,1.0\n{cell},2.0\n")
        with pytest.raises(ValueError, match="m.csv:3: option value"):
            load_measurements(path, Environment("e"))


class TestLoadErrorsByteForByte:
    """The loader's and the table checks' error texts, each naming the first
    offending line or plan."""

    def load_error(self, tmp_path, text):
        path = write_csv(tmp_path, "m.csv", text)
        with pytest.raises(ValueError) as exc:
            load_measurements(path, Environment("e"))
        return str(exc.value).replace(str(path), "m.csv")

    def test_ragged_row(self, tmp_path):
        assert self.load_error(tmp_path, "a,b,perf\n0,1,2.0\n0,1\n1,1,3.0,4\n") == (
            "m.csv:3: expected 3 cells, got 2")

    def test_blank_rows_are_skipped_but_counted(self, tmp_path):
        text = "a,b,perf\n0,1,2.0\n\n , \t,\n1,1,3.0\n1,x,4.0\n"
        assert self.load_error(tmp_path, text) == "m.csv:6: option value 'x' is not a number"
        table = load_measurements(write_csv(tmp_path, "ok.csv", text.rsplit("1,x", 1)[0]),
                                  Environment("e"))
        assert table.rows == {(0, 1): 2.0, (1, 1): 3.0}

    def test_number_literals_for_integers(self, tmp_path):
        path = write_csv(tmp_path, "m.csv", "a,b,perf\n3.0,1e3,1.5\n 4 ,-0,2.5\n")
        table = load_measurements(path, Environment("e"))
        assert table.rows == {(3, 1000): 1.5, (4, 0): 2.5}
        assert all(type(v) is int for plan in table.rows for v in plan)

    def test_first_bad_cell_of_a_row_is_named(self, tmp_path):
        assert self.load_error(tmp_path, "a,b,c,perf\n1.0,2.5,x,1.0\n") == (
            "m.csv:2: option value '2.5' is not an integer")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_performance(self, tmp_path, cell):
        assert self.load_error(tmp_path, f"a,perf\n0,1.0\n1,{cell}\n") == (
            "m.csv:3: non-finite performance value")

    def test_bad_performance_literal(self, tmp_path):
        assert self.load_error(tmp_path, "a,perf\n0,fast\n") == (
            "m.csv:2: could not convert string to float: 'fast'")

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("lines, message", [
        ([b"a,p\xe9rf", b"0,1.0"],
         "m.csv:1: the line is not UTF-8: invalid continuation byte at column 4"),
        ([b"a,perf", b"0,1.0", b"1,\xff2.0", b"2,3.0"],
         "m.csv:3: the line is not UTF-8: invalid start byte at column 3"),
        ([b"a,perf", b"0,1.0", b"1,2.0\xe2\x82"],
         "m.csv:3: the line is not UTF-8: unexpected end of data at column 6"),
    ], ids=["header", "row", "last-line-cut"])
    def test_a_line_that_is_not_utf8(self, tmp_path, end, lines, message):
        """Whatever ends the lines, the error names the line and column of
        the first byte that UTF-8 does not decode."""
        path = tmp_path / "m.csv"
        path.write_bytes(end.join(lines) + (end if lines[-1][-1] < 0x80 else b""))
        with pytest.raises(ValueError) as exc:
            load_measurements(path, Environment("e"))
        assert str(exc.value).replace(str(path), "m.csv") == message

    def test_first_plan_outside_the_space(self):
        space = make_space((0, 1), (0, 2))
        table = make_table(make_space((0, 1, 5), (0, 2, 3)),
                           {(0, 2): 1.0, (1, 3): 2.0, (5, 0): 3.0, (1, 2): 4.0})
        with pytest.raises(ValueError) as exc:
            table.validate_space(space)
        assert str(exc.value) == "table for 'e' holds plan (1, 3) outside the config space"
        with pytest.raises(ValueError) as exc:
            table.validate_space(make_space((0, 1)))
        assert str(exc.value) == "table for 'e' holds plan (0, 2) outside the config space"
        table.validate_space(make_space((0, 1, 5), (0, 2, 3, 4)))

    def test_table_rows_are_checked_in_order(self):
        env = Environment("e")
        with pytest.raises(ValueError) as exc:
            MeasurementTable.from_rows(env, ("a", "b"), {(0, 1): 1.0, (2, 3): float("nan"), (4,): 2.0})
        assert str(exc.value) == "non-finite performance value for plan (2, 3)"
        with pytest.raises(ValueError) as exc:
            MeasurementTable.from_rows(env, ("a", "b"), {(0, 1): 1.0, (4,): 2.0, (2, 3): float("inf")})
        assert str(exc.value) == "plan (4,) does not match option columns ('a', 'b')"
        with pytest.raises(ValueError) as exc:
            MeasurementTable.from_rows(env, ("a", "b"), {(0, 1): 1.0, (2, 3): -math.inf})
        assert str(exc.value) == "non-finite performance value for plan (2, 3)"


def walked(monkeypatch, path):
    """`load_measurements` through the row walk alone: the table of `path`,
    or the text of the error it raises."""
    with monkeypatch.context() as patch:
        patch.setattr(twin_module, "_parsed_table", lambda *args: None)
        return loaded(path)


def loaded(path):
    try:
        return load_measurements(path, Environment("e"))
    except ValueError as exc:
        return str(exc).replace(str(path), "m.csv")


def assert_same_table(table, other):
    assert type(table) is type(other), (table, other)
    if isinstance(table, str):
        assert table == other
        return
    assert table.option_names == other.option_names
    assert table.domains == other.domains
    assert all(type(v) is int for domain in table.domains for v in domain)
    assert table.codes.dtype == other.codes.dtype and np.array_equal(table.codes, other.codes)
    assert table.values.tobytes() == other.values.tobytes()


class TestLoaderParity:
    """The vectorised parse and the row walk give the same table, or the
    same `path:line` error, for every input; the parse hands every input it
    refuses, warns on or finds at fault to the walk, which names the line."""

    @pytest.mark.parametrize("text, expected", [
        ("a,b,perf\n0,1,3.5\n1,0,4.5\n", {(0, 1): 3.5, (1, 0): 4.5}),
        ("a,b,perf\n3.0,1,1.5\n", {(3, 1): 1.5}),
        ("a,b,perf\n1e3,1,1.5\n", {(1000, 1): 1.5}),
        ("a,b,perf\n1.0000000000000001,1,1.5\n",
         "m.csv:2: option value '1.0000000000000001' is not an integer"),
        ("a,b,perf\n0,1,1.0\n2.5,1,1.5\n", "m.csv:3: option value '2.5' is not an integer"),
        ("a,b,perf\n1_000,1,1_0.5\n", {(1000, 1): 10.5}),
        ("a,b,perf\n+2,1,+1.5\n", {(2, 1): 1.5}),
        ("a,b,perf\n 4 ,1, 2.5 \n", {(4, 1): 2.5}),
        ('a,b,perf\n"3",1,"1.5"\n', {(3, 1): 1.5}),
        ('a,b,perf\n0,1,1.0\n"1,2",3,4.0\n', "m.csv:3: option value '1,2' is not a number"),
        ("a,b,perf\n0,1,1.0\n#1,2,3.0\n", "m.csv:3: option value '#1' is not a number"),
        ("a,b,perf\n0,1,1.0\n\n1,1,2.0\n\n", {(0, 1): 1.0, (1, 1): 2.0}),
        ("a,b,perf\n0,1,1.0\n  \n , \t,\n,,\n1,1,2.0\n", {(0, 1): 1.0, (1, 1): 2.0}),
        ("a,b,perf\n0,1,1.0\n0,1\n", "m.csv:3: expected 3 cells, got 2"),
        ("a,b,perf\n0,1,1.0\n1,1,2.0,\n", "m.csv:3: expected 3 cells, got 4"),
        ("a,b,perf\n0,1,1.0\n1,1,2.0\n0,1,1.0\n", {(0, 1): 1.0, (1, 1): 2.0}),
        ("a,b,perf\n0,1,1.0\n1,1,2.0\n0,1,1.5\n",
         "m.csv:4: duplicate plan (0, 1) with conflicting values 1.0 vs 1.5"),
        ("a,b,perf\n0,1,0.0\n0,1,-0.0\n1,1,-0.0\n1,1,0.0\n", {(0, 1): -0.0, (1, 1): 0.0}),
        ("a,b,perf\n0,1,1.0\n1,1,nan\n", "m.csv:3: non-finite performance value"),
        ("a,b,perf\n0,1,-inf\n", "m.csv:2: non-finite performance value"),
        ("a,b,perf\n0,1,1e400\n", "m.csv:2: non-finite performance value"),
        ("a,b,perf\n9223372036854775808,1,1.0\n0,-9223372036854775809,2.0\n",
         {(2**63, 1): 1.0, (0, -(2**63) - 1): 2.0}),
        ("a,b,perf\n9223372036854775807,1,1.0\n", {(2**63 - 1, 1): 1.0}),
        ("a,b,perf\n", "measurement table for 'e' is empty"),
        ("a,b,perf\n\n\n", "measurement table for 'e' is empty"),
        ("\ufeffa,b,perf\r\n0,1,1.5\r\n", {(0, 1): 1.5}),
        ("a,b,perf\r0,1,1.5\r1,1,2.5", {(0, 1): 1.5, (1, 1): 2.5}),
        ("a,b,perf\n0,1,1.0\n1\x00,1,2.0\n", "m.csv:3: option value '1\\x00' is not a number"),
        ("a,b,perf\n0,1,1.0\n" + "0" * 131_072 + "1,1,2.0\n",
         "m.csv:3: field larger than field limit (131072)"),
    ], ids=["plain", "float-literal", "exponent", "inexact", "fraction", "underscores",
            "plus-signs", "spaces", "quoted", "quoted-comma", "comment", "blank-lines",
            "whitespace-lines", "short-row", "trailing-comma", "agreeing-duplicates",
            "conflicting-duplicates", "signed-zero-duplicates", "nan", "inf", "overflow",
            "past-int64", "int64-max", "header-only", "header-and-blanks", "byte-order-mark",
            "cr-lines", "nul", "past-the-field-limit"])
    def test_parse_and_walk_agree(self, tmp_path, monkeypatch, text, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        table = loaded(path)
        assert_same_table(table, walked(monkeypatch, path))
        if isinstance(expected, str):
            assert table == expected
        else:
            assert table.option_names == ("a", "b")
            assert list(map(repr, table.rows.items())) == list(map(repr, sorted(expected.items())))

    def test_a_plain_table_takes_the_parse(self, tmp_path, monkeypatch):
        # Rows in random order over two blocks, so the blocks' domains are
        # merged; the walk, which would build the table from a dict, is not
        # reached.
        plans = random.Random(5).sample(
            list(itertools.product(range(3), range(-5, 3000))), 3 * twin_module._LOAD_BLOCK // 2)
        path = write_csv(tmp_path, "m.csv", "a,b,perf\n" + "".join(
            f"{a},{b},{i / 8}\n" for i, (a, b) in enumerate(plans)))
        walk = walked(monkeypatch, path)
        with monkeypatch.context() as patch:
            patch.setattr(MeasurementTable, "from_rows", None)
            table = loaded(path)
        assert_same_table(table, walk)
        assert table.codes.dtype == np.uint16
        assert table.rows == {plan: i / 8 for i, plan in enumerate(plans)}
        assert list(table.rows) == sorted(plans)

    def test_random_files_agree(self, tmp_path, monkeypatch):
        """Short files of cells drawn from the characters that number
        literals, CSV and line ends are made of."""
        rng = random.Random(27)
        alphabet = list("0123456789+-.eE_,\"# \t\r\nnaifINF")
        path = tmp_path / "m.csv"
        for _ in range(300):
            rows = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))
                    for _ in range(rng.randrange(1, 4))]
            path.write_text("a,perf\n0,1.0\n" + "\n".join(rows), encoding="utf-8")
            assert_same_table(loaded(path), walked(monkeypatch, path))


def one_shot_rows(table):
    """The plan -> value dict of `table`, built from one whole-column list
    per option."""
    columns = [np.array(domain, object)[column].tolist()
               for domain, column in zip(table.domains, table.codes)]
    return dict(zip(zip(*columns), table.values.tolist()))


class TestRowsBuild:
    """`rows` is built a block of `_LOAD_BLOCK` codes at a time: the dict it
    keeps is the one-shot dict, and the build holds little more than it."""

    @pytest.mark.parametrize("base", [0, 2**70], ids=["int64", "python-int"])
    def test_equals_the_one_shot_dict(self, tmp_path, base):
        rng = random.Random(33)
        plans = rng.sample(list(itertools.product(range(base - 2, base + 3), range(50),
                                                  range(60))),
                           3 * twin_module._LOAD_BLOCK + 100)
        lines = [f"{a},{b},{c},{i / 8}\n" for i, (a, b, c) in enumerate(plans)]
        # Repeated rows that agree are one plan.
        lines += rng.sample(lines, 500)
        table = load_measurements(write_csv(tmp_path, "m.csv", "a,b,c,perf\n" + "".join(lines)),
                                  Environment("e"))
        assert len(table) == len(plans) > 3 * twin_module._LOAD_BLOCK
        expected = one_shot_rows(table)
        assert list(map(repr, table.rows.items())) == list(map(repr, expected.items()))
        assert list(table.rows) == sorted(plans)
        assert all(type(v) is int for plan in table.rows for v in plan)

    def test_the_build_holds_little_more_than_the_dict(self):
        # 17 binary options, as in the x264-shaped subset. A one-shot build
        # holds one list of every row's value per option at once: about
        # 2.7 MiB over the dict at this size.
        n = 20_000
        plans = np.array(sorted(random.Random(17).sample(range(2**17), n)))
        codes = (plans >> np.arange(16, -1, -1)[:, None] & 1).astype(np.uint8)
        table = MeasurementTable(Environment("e"), tuple(f"o{j}" for j in range(17)),
                                 ((0, 1),) * 17, codes, np.arange(n) / 8)
        tracemalloc.start()
        try:
            rows = table.rows
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == n
        assert peak - kept < 1 << 20
        assert rows == one_shot_rows(table)


class TestEnvironment:
    def test_sign_follows_direction(self):
        for direction, sign in (("minimize", 1.0), ("maximize", -1.0)):
            env = Environment("e", direction)
            assert env.sign == sign
        # Replacing the direction recomputes the sign.
        assert replace(Environment("e"), direction="maximize").sign == -1.0

    def test_sign_is_derived_not_compared(self):
        assert Environment("e", "maximize") == Environment("e", "maximize")
        assert "sign" not in repr(Environment("e"))
        with pytest.raises(TypeError):
            Environment("e", "minimize", "", -1.0)


class TestMeasure:
    def test_returns_value(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        assert twin.measure((0,)) == 7.0

    def test_cache_hit_keeps_counter(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        first = twin.measure((0,))
        assert twin.counter == 1
        second = twin.measure((0,))
        assert twin.counter == 1
        assert first == second

    def test_remeasured_after_environment_change(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        twin.measure((0,))
        twin.set_environment("e")
        assert twin.coverage() == 0.0
        twin.measure((0,))
        assert twin.counter == 2

    def test_same_environment_reentry_clears_cache(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0, (1,): 9.0}), current="e")
        twin.measure((0,))
        twin.measure((1,))
        assert twin.coverage() == 1.0
        twin.set_environment("e")
        assert twin.coverage() == 0.0

    def test_unknown_plan(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0}), current="e")
        with pytest.raises(KeyError, match=r"plan \(1,\) has no measurement under "
                                           r"environment 'e'"):
            twin.measure((1,))

    def test_no_current_environment(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0}))
        for call in (twin.measure, twin.repair):
            for plan in ((0,), (1,)):
                with pytest.raises(ValueError, match="twin has no current environment"):
                    call(plan)

    def test_unknown_environment(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 7.0}))
        with pytest.raises(ValueError, match="unknown environment"):
            twin.set_environment("nope")

    def test_maximize_negated_at_boundary(self):
        space = make_space((0, 1))
        table = make_table(space, {(0,): 7.0, (1,): 9.0}, direction="maximize")
        twin = make_twin(space, table, current="e")
        # Larger raw is better, so the canonical value of the better plan is lower.
        assert twin.measure((1,)) == -9.0
        assert twin.measure((0,)) == -7.0

    def test_counter_untouched_by_change(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 1.0, (1,): 2.0}), current="e")
        twin.measure((0,))
        twin.set_environment("e")
        assert twin.counter == 1


class TestCoverage:
    def test_fresh_zero(self):
        space = make_space((0, 1))
        twin = make_twin(space, make_table(space, {(0,): 1.0, (1,): 2.0}), current="e")
        assert twin.coverage() == 0.0

    def test_half(self):
        space = make_space((0, 1, 2), (0, 1))
        rows = {p: float(i) for i, p in enumerate(itertools.product((0, 1, 2), (0, 1)))}
        twin = make_twin(space, make_table(space, rows), current="e")
        for plan in list(rows)[:3]:
            twin.measure(plan)
        assert twin.coverage() == 0.5

    def test_monotone_within_epoch(self):
        space = make_space((0, 1, 2))
        twin = make_twin(space, make_table(space, {(0,): 1, (1,): 2, (2,): 3}), current="e")
        seen = [twin.coverage()]
        for plan in [(0,), (0,), (1,), (2,)]:
            twin.measure(plan)
            seen.append(twin.coverage())
        assert seen == sorted(seen)
        assert seen[-1] == 1.0


class TestRepair:
    def test_on_table_passthrough(self):
        space = make_space((0, 1), (0, 1))
        twin = make_twin(space, make_table(space, {(0, 0): 1.0, (1, 1): 2.0}), current="e")
        assert twin.repair((1, 1)) == (1, 1)

    def test_nearest_measured(self):
        space = make_space((0, 1), (0, 1))
        twin = make_twin(space, make_table(space, {(0, 0): 1.0, (1, 1): 2.0}), current="e")
        # (0, 1) is one step from both; tie resolves to the lexicographically lowest.
        assert twin.repair((0, 1)) == (0, 0)

    def test_nearest_wins_over_lexicographic(self):
        space = make_space((0, 1, 2, 3, 4), (0, 1))
        twin = make_twin(space, make_table(space, {(0, 0): 1.0, (4, 1): 2.0}), current="e")
        assert twin.repair((3, 1)) == (4, 1)

    def test_nearest_rejects_wrong_lengths(self):
        space = make_space((0, 4), (0, 4), (0, 4))
        table = make_table(space, {(0, 0, 0): 1.0, (4, 4, 4): 2.0})
        for plan in [(4,), (0, 4), (0, 4, 4, 0)]:
            with pytest.raises(ValueError, match="does not give each option of the space"):
                table.nearest(plan, space)
        assert table.nearest((0, 4, 4), space) == (4, 4, 4)

    def test_nearest_rejects_values_outside_the_space(self):
        # Every value must lie within its option's [min, max]; a value between
        # two domain values is within it. The rows must be plans of the space.
        space = make_space((0, 4), (0, 4), (0, 4))
        table = make_table(space, {(0, 0, 0): 1.0, (4, 4, 4): 2.0})
        for plan in [(5, 4, 4), (0, -1, 4), (0, 4, 2**70), (-(2**70), 0, 0)]:
            with pytest.raises(ValueError, match=r"outside its \[min, max\]"):
                table.nearest(plan, space)
        assert table.nearest((1, 3, 3), space) == (4, 4, 4)
        with pytest.raises(ValueError, match="outside the config space"):
            table.nearest((0, 0, 0), make_space((0, 4), (0, 3), (0, 4)))


def brute_force_nearest(rows, plan, distance):
    """The row nearest to `plan` under `distance(row, plan)`, computed exactly
    over the whole table; the rows are tried in sorted order and `min` keeps
    the first minimum, so the lexicographically lowest plan wins ties."""
    return min(sorted(rows), key=lambda row: distance(row, plan))


def brute_force_repair(rows, plan, space):
    """Repair by the span-normalized distance of `space`, in exact fractions."""
    if plan in rows:
        return plan
    return brute_force_nearest(rows, plan, functools.partial(squared_distance, space))


def weighted(weights):
    """The distance ``sum_j weights[j] * (a[j] - b[j]) ** 2`` in Python ints."""
    return lambda a, b: sum(w * (x - y) ** 2 for w, x, y in zip(weights, a, b))


def random_domain(rng):
    """Mostly non-dyadic spans, some single-value (zero-span) options."""
    shape = rng.random()
    if shape < 0.15:
        return (rng.randint(-3, 5),)
    if shape < 0.3:
        return (0, 1, 2, 3)
    if shape < 0.45:
        return (1, 2, 4, 8, 9)
    return tuple(sorted(rng.sample(range(-4, 12), rng.randint(2, 5))))


class TestRepairOracle:
    """Seeded property loops: repair answers what the brute-force formula
    answers, on first searches, memo hits and after environment switches."""

    def test_random_sparse_tables(self):
        rng = random.Random(2024)
        for _ in range(60):
            n_options = rng.randint(1, 12)
            space = make_space(*(random_domain(rng) for _ in range(n_options)))
            rows = {space.random_plan(rng): rng.random() for _ in range(rng.randint(1, 80))}
            twin = make_twin(space, make_table(space, rows), current="e")
            queries = [space.random_plan(rng) for _ in range(25)]
            expected = {plan: brute_force_repair(rows, plan, space) for plan in queries}
            for plan in queries + queries[::-1]:
                assert twin.repair(plan) == expected[plan]

    def test_tie_heavy_layouts(self):
        # Every row is the query plus a signed permutation of one step vector,
        # so all rows lie at one distance, and the lowest plan must win.
        rng = random.Random(7)
        for n_options, span in ((4, 3), (7, 6), (8, 6), (9, 5), (12, 6), (16, 7)):
            space = make_space(*(tuple(range(span + 1)),) * n_options)
            query = tuple(rng.randint(3, span - 3) if span > 5 else 1
                          for _ in range(n_options))
            base = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n_options)]
            rows = {}
            for _ in range(300):
                step = rng.sample(base, n_options)
                plan = tuple(q + d * rng.choice((-1, 1)) for q, d in zip(query, step))
                if space.validate_plan(plan) and plan != query:
                    rows[plan] = 0.0
            twin = make_twin(space, make_table(space, rows), current="e")
            expected = brute_force_repair(rows, query, space)
            assert twin.repair(query) == expected
            assert twin.repair(query) == expected

    def test_environment_switches(self):
        rng = random.Random(99)
        for _ in range(20):
            space = make_space(*(random_domain(rng) for _ in range(rng.randint(1, 10))))
            rows_a = {space.random_plan(rng): 1.0 for _ in range(40)}
            rows_b = {space.random_plan(rng): 2.0 for _ in range(40)}
            twin = make_twin(space, make_table(space, rows_a, env_id="A"),
                             make_table(space, rows_b, env_id="B"))
            queries = [space.random_plan(rng) for _ in range(15)]
            for env_id, rows in (("A", rows_a), ("B", rows_b), ("A", rows_a)):
                twin.set_environment(env_id)
                for plan in queries:
                    assert twin.repair(plan) == brute_force_repair(rows, plan, space)

    def test_table_answers_per_scale(self):
        # The spaces differ only in their domain ends, so in their weights.
        # All queries are searched under one space, then the next, and under
        # the first again, so a memo kept from another space answers wrong.
        rng = random.Random(5)
        base = make_space((0, 1, 2, 3), (0, 2, 5), (1, 2, 4, 8, 9))
        spaces = (base,
                  make_space((-30, 0, 1, 2, 3), (0, 2, 5), (1, 2, 4, 8, 9)),
                  make_space((0, 1, 2, 3), (0, 2, 5), (1, 2, 4, 8, 9, 200)),
                  base)
        assert len({space.weights for space in spaces}) == 3
        rows = {base.random_plan(rng): 0.0 for _ in range(12)}
        table = make_table(base, rows)
        queries = [base.random_plan(rng) for _ in range(30)]
        answers = set()
        for space in spaces:
            for plan in queries:
                found = table.nearest(plan, space)
                assert found == brute_force_repair(rows, plan, space)
                answers.add((plan, found))
        assert len(answers) > len(queries)

    def test_whole_grid(self):
        # Every plan of a small grid is searched on first use, after each
        # environment switch, under a second space whose wider first domain
        # gives other weights, and under the first space again; the spaces
        # hold zero-span options, non-contiguous domains and one-row tables.
        # Values between domain values, wrong lengths and values outside the
        # [min, max] are asked between the grid passes.
        rng = random.Random(25)
        for trial in range(24):
            domains = [random_domain(rng) for _ in range(rng.randint(1, 4))]
            domains[trial % len(domains)] = ((3,), (1, 2, 4, 8, 9))[trial % 2]
            base = make_space(*domains)
            wide = make_space((domains[0][0] - 30,) + domains[0], *domains[1:])
            grid = list(itertools.product(*domains))
            tables = {}
            for env_id in "AB":
                size = rng.choice((1, 2, rng.randint(1, len(grid))))
                tables[env_id] = {plan: 0.0 for plan in rng.sample(grid, size)}
            twin = make_twin(base, *(make_table(base, rows, env_id)
                                     for env_id, rows in tables.items()))
            expected = {env_id: [brute_force_repair(rows, plan, base) for plan in grid]
                        for env_id, rows in tables.items()}
            for env_id in "ABA":
                twin.set_environment(env_id)
                assert [twin.repair(plan) for plan in grid] == expected[env_id]
                self.check_off_grid(twin.tables[env_id], base, rng)
            table = twin.tables["A"]
            wide_grid = list(itertools.product(*(o.domain for o in wide.options)))
            assert [table.nearest(plan, wide) for plan in wide_grid] == [
                brute_force_repair(tables["A"], plan, wide) for plan in wide_grid]
            assert [table.nearest(plan, base) for plan in grid] == expected["A"]

    def check_off_grid(self, table, space, rng):
        """In-range values off the domains answer by the formula, and wrong
        lengths and values outside the [min, max] keep their messages."""
        distance = weighted(space.weights)
        for _ in range(3):
            plan = tuple(rng.randint(o.domain[0], o.domain[-1]) for o in space.options)
            assert table.nearest(plan, space) == brute_force_nearest(table.rows, plan, distance)
        plan = tuple(o.domain[0] for o in space.options)
        for wrong in (plan + plan[:1], plan[1:]):
            with pytest.raises(ValueError, match="does not give each option of the space"):
                table.nearest(wrong, space)
        with pytest.raises(ValueError, match=r"outside its \[min, max\]"):
            table.nearest((space.options[0].domain[-1] + 1,) + plan[1:], space)

    def test_whole_grid_of_tie_heavy_layouts(self):
        # The layouts of `test_tie_heavy_layouts` on grids small enough to
        # search every plan: many plans have several rows at one distance.
        rng = random.Random(11)
        for n_options, span in ((3, 6), (2, 9), (4, 4), (3, 7)):
            space = make_space(*(tuple(range(span + 1)),) * n_options)
            query = tuple(rng.randint(3, span - 3) if span > 5 else 1
                          for _ in range(n_options))
            base = [rng.choice((0, 1, 1, 2, 3)) for _ in range(n_options)]
            rows = {}
            for _ in range(300):
                step = rng.sample(base, n_options)
                plan = tuple(q + d * rng.choice((-1, 1)) for q, d in zip(query, step))
                if space.validate_plan(plan) and plan != query:
                    rows[plan] = 0.0
            assert len(rows) > 1
            twin = make_twin(space, make_table(space, rows), current="e")
            grid = list(itertools.product(range(span + 1), repeat=n_options))
            expected = [brute_force_repair(rows, plan, space) for plan in grid]
            for _ in range(2):
                assert [twin.repair(plan) for plan in grid] == expected

    def test_term_cache_follows_the_scale(self):
        # The spaces differ only in their domain ends, so in their weights.
        # Each query is searched under both, alternately, so a term or an
        # answer kept from the other space gives a wrong one.
        rng = random.Random(8)
        narrow = make_space((0, 1, 2, 3, 4), (0, 2, 5, 9), (1, 2, 4, 8, 9), (0, 3))
        wide = make_space((-40, 0, 1, 2, 3, 4), (0, 2, 5, 9), (1, 2, 4, 8, 9, 300), (0, 3))
        rows = {narrow.random_plan(rng): 0.0 for _ in range(25)}
        table = make_table(narrow, rows)
        answers = set()
        for _ in range(40):
            plan = narrow.random_plan(rng)
            for space in (narrow, wide):
                found = table.nearest(plan, space)
                assert found == brute_force_repair(rows, plan, space)
                answers.add((plan, found))
            plan = wide.random_plan(rng)
            assert table.nearest(plan, wide) == brute_force_repair(rows, plan, wide)
        assert len(answers) > 40

    def test_wide_spans(self):
        # Spans of 2**20 to 2**52 with values at the domain ends, so L =
        # lcm(span**2) reaches 2**104 and the distances are summed in Python
        # ints. Each table also holds a pair around the middle of the first
        # option, `mid - d - 1` and `mid + d` with d = span / 4 >= 2**34, whose
        # distances differ by about 2/d relative: the lexicographically lower
        # one is farther.
        rng = random.Random(52)
        for _ in range(40):
            n_options = rng.randint(1, 8)
            spans = [2 ** rng.randint(36, 52)] + [2 ** rng.randint(20, 52)
                                                  for _ in range(n_options - 1)]
            space = make_space(*(
                (0, 1, 2, span // 4 - 1, span // 2, 3 * span // 4, span - 2, span - 1, span)
                for span in spans))
            rows = {space.random_plan(rng): 0.0 for _ in range(rng.randint(1, 60))}
            query = tuple(span // 2 for span in spans)
            near, far = (3 * spans[0] // 4,) + query[1:], (spans[0] // 4 - 1,) + query[1:]
            rows[near] = rows[far] = 0.0
            table = make_table(space, rows)
            distance = functools.partial(squared_distance, space)
            for plan in [query] + [space.random_plan(rng) for _ in range(20)]:
                assert table.nearest(plan, space) == brute_force_nearest(
                    rows, plan, distance)
            if query not in rows:
                assert table.nearest(query, space) == near

    def test_spans_just_past_int64(self):
        # Spans 107, 169, 217 and 387 make L = lcm(span**2) about 2.3e18: one
        # term fits int64, but four options times L pass 2**63 by about
        # 0.01%, so the space's distances are Python ints. Only the two far
        # corners are that far apart; a wrapped int64 sum would make the far
        # corner the nearest row.
        spans = (107, 169, 217, 387)
        assert 2**63 < len(spans) * math.lcm(*(s * s for s in spans)) < 2**63 * 1.001
        space = make_space(*((0, 1, s // 3, s // 2, s - 1, s) for s in spans))
        assert space.distance_dtype == "object"
        rng = random.Random(63)
        rows = {space.random_plan(rng): 0.0 for _ in range(300)}
        rows[spans] = 0.0
        table = make_table(space, rows)
        distance = functools.partial(squared_distance, space)
        for plan in [(0, 0, 0, 0), spans] + [space.random_plan(rng) for _ in range(100)]:
            assert table.nearest(plan, space) == brute_force_nearest(
                rows, plan, distance)

    def test_values_outside_the_table_are_exact(self):
        # A table whose values pass int64, under a space that reaches 2**70
        # past them on both sides: the distances are Python ints, and answer
        # exactly. Values outside the space are refused.
        space = make_space((-(2**70), 0, 2**70, 2**70 + 1, 2**70 + 3, 2**71),
                           (0, 5, 10), (7,))
        assert space.distance_dtype == "object"
        rows = {(2**70, 0, 7): 0.0, (2**70 + 3, 10, 7): 0.0, (2**70 + 1, 5, 7): 0.0}
        table = make_table(space, rows)
        for plan in [(2**70 + 2, 5, 7), (0, 0, 7), (-(2**70), 10, 7), (2**70 + 2, 0, 7),
                     (2**71, 3, 7), (2**70 + 2, 5, 7)]:
            assert table.nearest(plan, space) == brute_force_nearest(
                rows, plan, weighted(space.weights))
        for plan in [(2**71 + 1, 5, 7), (-(2**70) - 1, 5, 7), (2**70, 11, 7), (2**70, 5, 8),
                     (2**70, 5, 2**70)]:
            with pytest.raises(ValueError, match=r"outside its \[min, max\]"):
                table.nearest(plan, space)

    @pytest.mark.parametrize("tabled", [0, 3])
    def test_terms_past_the_cache_limit(self, monkeypatch, tabled):
        # Four options, one of four values and three of ten, over 200 rows:
        # a budget of 4 x (4 x 200 x 8 B) gives each option a share that
        # holds the narrow option's term table and no other, and one byte
        # less holds none. A search adds the table's rows to the terms it
        # computes anew, for values between domain values too, and both
        # budgets give the same answers.
        rng = random.Random(tabled)
        domains = [tuple(range(0, 9 * k + 1, k)) for k in (1, 3, 7)]
        domains.insert(tabled, (0, 2, 3, 9))
        space = make_space(*domains)
        rows = {space.random_plan(rng): 0.0 for _ in range(200)}
        queries = [tuple(rng.randint(d[0], d[-1]) for d in domains) for _ in range(100)]
        distance = weighted(space.weights)
        expected = [brute_force_nearest(rows, plan, distance) for plan in queries]
        budget = 4 * (4 * len(rows) * 8)
        for room, holders in ((budget - 1, []), (budget, [tabled])):
            monkeypatch.setattr(twin_module, "_TERM_CACHE_BYTES", room)
            table = make_table(space, rows)
            assert [table.nearest(plan, space) for plan in queries] == expected
            assert table._map is None
            assert [j for j, terms in enumerate(table._terms) if terms is not None] == holders
        column = [row[tabled] for row in sorted(rows)]
        assert table._terms[tabled].dtype == np.int64
        assert table._terms[tabled].tolist() == [
            [space.weights[tabled] * (c - v) ** 2 for c in column] for v in domains[tabled]]

    def test_searches_past_a_full_cache_reuse_two_buffers(self):
        # 50,000 rows over seven options of 10,000 values: no option's term
        # table fits its share of the budget, so a search's terms and its sum
        # go into the table's two row-length buffers, allocated when the
        # search state is built, and 200 more searches raise the traced peak
        # by less than one row-length.
        rng = random.Random(50)
        domain = tuple(range(10_000))
        space = make_space(*(domain,) * 7)
        rows = {tuple(rng.choices(domain, k=7)): 0.0 for _ in range(50_000)}
        table = make_table(space, rows)
        row_bytes = 8 * len(rows)
        queries = [tuple(rng.choices(domain, k=7)) for _ in range(220)]
        for plan in queries[:20]:
            table.nearest(plan, space)
        assert table._terms == [None] * 7
        tracemalloc.start()
        try:
            answers = [table.nearest(plan, space) for plan in queries[20:]]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < row_bytes
        distance = weighted(space.weights)
        for plan, found in list(zip(queries[20:], answers))[:2]:
            assert found == brute_force_nearest(rows, plan, distance)

    def test_python_int_terms_count_their_objects(self):
        # Values 2**40 / 50 apart make every distance term a Python int of
        # about 2**80, whose object takes several times its 8-byte pointer.
        # Such a space builds no term table, however small, and caches no
        # term: once ten searches have filled the scan's two buffers with int
        # objects, 90 more searches hold less than one term's objects more.
        rng = random.Random(40)
        domain = tuple(k * 2**40 // 50 for k in range(51))
        space = make_space(domain, domain, domain)
        assert space.distance_dtype == "object"
        rows = {space.random_plan(rng): 0.0 for _ in range(600)}
        table = make_table(space, rows)
        queries = [space.random_plan(rng) for _ in range(100)]
        answers = [table.nearest(queries[0], space)]
        assert table._terms == [None] * 3
        tracemalloc.start()
        try:
            answers += [table.nearest(plan, space) for plan in queries[1:10]]
            held = -tracemalloc.get_traced_memory()[0]
            answers += [table.nearest(plan, space) for plan in queries[10:]]
            held += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        one_term = sum(map(sys.getsizeof, (table._columns[0] - domain[-1]) ** 2))
        assert held < one_term
        distance = weighted(space.weights)
        assert answers == [brute_force_nearest(rows, plan, distance) for plan in queries]


class TestNearestMapRule:
    """A table on each side of each condition of the nearest-row map's rule:
    both sides answer every grid plan as the formula does, and a table the
    map serves holds no columns, term tables or memo afterwards."""

    def grid_answers(self, table, space, mapped):
        grid = list(itertools.product(*(o.domain for o in space.options)))
        found = [table.nearest(plan, space) for plan in grid]
        assert found == [brute_force_repair(table.rows, plan, space) for plan in grid]
        assert (table._map is not None) == mapped
        assert (table._columns is None and all(terms is None for terms in table._terms)
                and not table._nearest) == mapped
        return found

    def test_work_of_a_pass_within_the_budget(self, monkeypatch):
        # 64 cells of four values each: a pass takes 64 x 4 x 8 B.
        space = make_space(*((0, 1, 2, 3),) * 3)
        rng = random.Random(3)
        rows = {space.random_plan(rng): 0.0 for _ in range(10)}
        answers = []
        for budget, mapped in ((64 * 4 * 8, True), (64 * 4 * 8 - 1, False)):
            monkeypatch.setattr(twin_module, "_TERM_CACHE_BYTES", budget)
            answers.append(self.grid_answers(make_table(space, rows), space, mapped))
        assert answers[0] == answers[1]

    def test_grid_arrays_within_the_budget(self, monkeypatch):
        # 2**16 cells of two values each: the build holds at most three
        # int64 arrays of the grid at once, so a budget of 3 x cells x 8 B
        # admits the map and one byte less does not. Past the three arrays
        # the traced peak holds only what does not grow with the grid
        # (numpy's iteration buffers, the sorted rows), and the map keeps
        # one 8 B int64 row index a cell.
        space = make_space(*((0, 1),) * 16)
        cells = 2**16
        rng = random.Random(16)
        rows = {space.random_plan(rng): 0.0 for _ in range(300)}
        queries = [space.random_plan(rng) for _ in range(100)]
        distance = weighted(space.weights)
        expected = [brute_force_nearest(rows, plan, distance) for plan in queries]
        for budget, mapped in ((3 * cells * 8, True), (3 * cells * 8 - 1, False)):
            monkeypatch.setattr(twin_module, "_TERM_CACHE_BYTES", budget)
            table = make_table(space, rows)
            # The plan -> value lookup is built at first use; only the
            # map's build is traced.
            assert len(table.rows) == len(rows)
            tracemalloc.start()
            try:
                first = table.nearest(queries[0], space)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (table._map is not None) == mapped
            if mapped:
                assert peak - budget < 256 << 10
                assert held - cells * 8 < 64 << 10
            assert [first] + [table.nearest(plan, space) for plan in queries[1:]] == expected

    def test_a_failed_build_is_built_again(self, monkeypatch):
        # A map build that raises under a new space leaves the table's
        # state for the old one, so the next search under the new space
        # builds its map instead of answering from the old space's.
        narrow = make_space((0, 1, 2), (0, 1, 2))
        wide = make_space((0, 1, 2, 30), (0, 1, 2))
        rows = {(0, 0): 0.0, (2, 1): 0.0, (1, 2): 0.0}
        table = make_table(narrow, rows)
        grid = list(itertools.product((0, 1, 2), repeat=2))
        assert [table.nearest(plan, narrow) for plan in grid] == [
            brute_force_repair(rows, plan, narrow) for plan in grid]
        build = twin_module._nearest_map

        def interrupted(space, domains, codes):
            raise KeyboardInterrupt

        monkeypatch.setattr(twin_module, "_nearest_map", interrupted)
        with pytest.raises(KeyboardInterrupt):
            table.nearest((1, 0), wide)
        monkeypatch.setattr(twin_module, "_nearest_map", build)
        assert [table.nearest(plan, wide) for plan in grid] == [
            brute_force_repair(rows, plan, wide) for plan in grid]
        assert table._map is not None

    def test_an_interrupted_scan_is_built_again(self, monkeypatch):
        # A scan build interrupted at its buffers leaves no scan state, so
        # the next query between domain values builds the scan again instead
        # of reading term tables or buffers that were never made.
        space = make_space((0, 4, 8), (0, 1, 2))
        rows = {(0, 0): 0.0, (8, 1): 0.0, (4, 2): 0.0}
        table = make_table(space, rows)
        assert table.nearest((4, 1), space) == brute_force_repair(rows, (4, 1), space)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", interrupted)
            with pytest.raises(KeyboardInterrupt):
                table.nearest((5, 1), space)
        queries = list(itertools.product(range(9), range(3)))
        assert [table.nearest(plan, space) for plan in queries] == [
            brute_force_nearest(rows, plan, weighted(space.weights)) for plan in queries]
        assert table._map is not None and table._terms[0] is not None

    def test_key_past_2_62(self):
        # L = (2**29)**2 = 2**58, so (1 + 1) * L << b reaches 2**62 at b = 3,
        # four rows; the distances fit int64 either way.
        space = make_space((0, 1, 2, 2**29))
        assert space.distance_dtype == "int64"
        rows = {(0,): 0.0, (2,): 0.0, (2**29,): 0.0}
        self.grid_answers(make_table(space, rows), space, True)
        rows[(1,)] = 0.0
        self.grid_answers(make_table(space, rows), space, False)

    def test_object_distances(self):
        # The same shape and weights, once with values past int64: the
        # answers are the same plans, shifted.
        shift = 2**70
        small = make_space((0, 1, 3), (0, 5, 10))
        large = make_space((shift, shift + 1, shift + 3), (0, 5, 10))
        assert (small.distance_dtype, large.distance_dtype) == ("int64", "object")
        rows = {(1, 0): 0.0, (3, 10): 0.0, (0, 5): 0.0}
        found = self.grid_answers(make_table(small, rows), small, True)
        shifted = self.grid_answers(
            make_table(large, {(a + shift, b): v for (a, b), v in rows.items()}), large, False)
        assert shifted == [(a + shift, b) for a, b in found]


class TestSynthLandscape:
    def test_deterministic(self):
        a1, b1 = synth_tables(n_options=3, domain_size=4, n_peaks=3, noise_seed=5)
        a2, b2 = synth_tables(n_options=3, domain_size=4, n_peaks=3, noise_seed=5)
        assert a1.rows == a2.rows
        assert b1.rows == b2.rows

    def test_values_do_not_depend_on_the_jitter_block(self, monkeypatch):
        # 64 plans: blocks of 5 leave a partial last block, blocks of 64 none.
        landscapes = []
        for block in (5, 64):
            monkeypatch.setattr(twin_module, "_JITTER_BLOCK", block)
            landscapes.append(synth_landscape(n_options=3, domain_size=4, n_peaks=3))
        for values, again in zip(*landscapes):
            assert values.dtype == np.float64 and values.shape == (64,)
            assert values.tobytes() == again.tobytes()

    def test_different_seeds_differ(self):
        a1, _ = synth_tables(n_options=3, domain_size=4, n_peaks=3, noise_seed=5)
        a2, _ = synth_tables(n_options=3, domain_size=4, n_peaks=3, noise_seed=6)
        assert a1.rows != a2.rows

    def test_shared_space_and_direction(self):
        ta, tb = synth_tables(n_options=3, domain_size=4, n_peaks=3)
        assert set(ta.rows) == set(tb.rows)
        assert ta.environment.direction == "minimize"
        assert ta.implied_space() == tb.implied_space()

    def test_two_peaks_optimum_shift(self):
        ta, tb = synth_tables(n_options=3, domain_size=5, n_peaks=2, noise_seed=1)
        argmin_a = min(ta.rows, key=ta.rows.get)
        argmin_b = min(tb.rows, key=tb.rows.get)
        assert argmin_a != argmin_b
        # Brute-force neighbor scan, written here independently: one step in
        # one option. Environment A's best plan must still be a local optimum
        # of environment B, just not its global one.
        domain = sorted({p[0] for p in ta.rows})
        for q in _one_step_neighbors(argmin_a, domain):
            assert tb.rows[q] > tb.rows[argmin_a]

    @pytest.mark.parametrize("shape, message", [
        ({"n_options": 0}, "--options must be at least 1, got 0"),
        ({"n_options": -1}, "--options must be at least 1, got -1"),
        ({"domain_size": 1}, "--domain-size must be at least 2, got 1"),
        ({"domain_size": -3, "n_options": 2}, "--domain-size must be at least 2, got -3"),
        ({"n_options": 20}, "--options 20 with --domain-size 5 make more than the 1,048,576 "
                            "plans a landscape may have"),
        ({"n_options": 10**9, "domain_size": 2}, "--options 1000000000 with --domain-size 2"),
        # 1,185,921 plans: a guard that let this through would be slow, not
        # out of memory.
        ({"n_options": 4, "domain_size": 33, "n_peaks": 2}, "--options 4 with --domain-size 33"),
        # 17 x 2**20 distances, over the limit by a sixteenth: a guard that
        # let this through would be slow, not out of memory.
        ({"n_options": 4, "domain_size": 32, "n_peaks": 17},
         "--peaks 17 over 1,048,576 plans make more than the 16,777,216 plan-to-peak "
         "distances a landscape may have"),
        ({"n_peaks": 1}, "--peaks must be at least 2, got 1"),
        ({"n_peaks": 0}, "--peaks must be at least 2, got 0"),
        ({"n_peaks": -3}, "--peaks must be at least 2, got -3"),
        ({"n_options": 2, "domain_size": 2, "n_peaks": 5},
         "--peaks 5 is more than the 4 plans of --options 2 with --domain-size 2"),
        ({"n_options": 3, "domain_size": 4, "n_peaks": 3, "peak_shift": 3},
         "--peak-shift 3 must not be a multiple of --peaks 3"),
        ({"peak_shift": 40}, "--peak-shift 40 must not be a multiple of --peaks 40"),
        ({"peak_shift": 0}, "--peak-shift 0 must not be a multiple of --peaks 40"),
    ], ids=["no-options", "negative-options", "one-value", "negative-values", "20-options",
            "1e9-options", "over-the-plan-limit", "over-the-distance-limit", "one-peak",
            "no-peaks", "negative-peaks", "more-peaks-than-plans", "identity-shift",
            "shift-of-all-peaks", "no-shift"])
    def test_bad_shape_refused_by_flag(self, shape, message):
        with pytest.raises(ValueError) as exc:
            synth_landscape(**shape)
        assert str(exc.value).startswith(message)

    def test_plan_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(twin_module, "SYNTH_MAX_PLANS", 64)
        values, _ = synth_landscape(n_options=3, domain_size=4, n_peaks=3)
        assert len(values) == 64
        with pytest.raises(ValueError, match="more than the 64 plans"):
            synth_landscape(n_options=2, domain_size=9, n_peaks=3)

    def test_distance_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(twin_module, "SYNTH_MAX_DISTANCES", 64 * 3)
        values, _ = synth_landscape(n_options=3, domain_size=4, n_peaks=3)
        assert len(values) == 64
        with pytest.raises(ValueError, match="more than the 192 plan-to-peak distances"):
            synth_landscape(n_options=3, domain_size=4, n_peaks=4)


def _one_step_neighbors(plan, domain):
    out = []
    for i, v in enumerate(plan):
        pos = domain.index(v)
        if pos > 0:
            out.append(plan[:i] + (domain[pos - 1],) + plan[i + 1 :])
        if pos + 1 < len(domain):
            out.append(plan[:i] + (domain[pos + 1],) + plan[i + 1 :])
    return out


class TestCyberTwinConstruction:
    def test_duplicate_environment_ids(self):
        space = make_space((0, 1))
        t1 = make_table(space, {(0,): 1.0})
        t2 = make_table(space, {(1,): 2.0})
        with pytest.raises(ValueError, match="duplicate environment"):
            CyberTwin(space, [t1, t2])

    def test_plan_outside_space_rejected(self):
        space = make_space((0, 1))
        bad = make_table(make_space((0, 1, 2)), {(2,): 1.0})
        with pytest.raises(ValueError, match="outside the config space"):
            CyberTwin(space, [bad])

"""A seeded mutator of `traces.csv`: lines deleted, duplicated, truncated,
swapped and blanked, cells quoted, and cells edited with tokens a writer
never writes, a raw 0xff byte among them. On every mutant `lidos summarize`
exits 0 or 2, never with a traceback; exit 2 prints one `error:` line; and
one worker and two give the same exit code, the same stderr and the same
output bytes. Blocks of 16 rows
make the small run's traces 24 blocks, so a plain mutant forks over two
workers."""

from __future__ import annotations

import random

import pytest

from lidos import harness
from lidos.cli import main as cli_main

SEED = 36
CASES = 200
# "\udcff" is written as the raw byte 0xff, which no UTF-8 text holds.
TOKENS = ("nan", "inf", "-0", "2**70", "1e999", "1_0", "0x1", " ", "", "\ufeff", "\u00e9",
          "\udcff", '"', "\r", "\0", "lidos", "B", "9" * 30)


def mutate(rng: random.Random, lines: list[str]) -> str:
    """One or two random mutations of `lines`, the file's lines with their
    newlines, as the mutant's text."""
    lines = lines.copy()
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(lines))
        op = rng.choice(("delete", "duplicate", "truncate", "cut", "swap", "blank", "quote",
                         "edit", "edit"))
        if op == "delete":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        elif op == "truncate":
            lines[at] = lines[at][:rng.randrange(len(lines[at]))] + "\n"
        elif op == "cut":  # the file ends part way through a line
            lines[at:] = [lines[at][:rng.randrange(len(lines[at]))]]
        elif op == "swap":
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "blank":
            lines.insert(at, "\n")
        elif op == "quote":  # the same cell, quoted as a csv writer may
            cells = lines[at].rstrip("\n").split(",")
            cell = rng.randrange(len(cells))
            cells[cell] = f'"{cells[cell]}"'
            lines[at] = ",".join(cells) + "\n"
        else:
            cells = lines[at].rstrip("\n").split(",")
            cell = rng.randrange(len(cells))
            token = rng.choice(TOKENS)
            cells[cell] = rng.choice((token, cells[cell] + token, token + cells[cell]))
            lines[at] = ",".join(cells) + "\n"
        if not lines:
            lines = [""]
    return "".join(lines)


@pytest.fixture
def small_run(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_TRACE_BLOCK", 16)
    synth = tmp_path / "synth"
    assert cli_main(["synth", "--out", str(synth), "--options", "3", "--domain-size", "4",
                     "--peaks", "4"]) == 0
    manifest = synth / "scenario.txt"
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(manifest), "--out", str(out),
                     "--repetitions", "2", "--planners", "lidos,stationary"]) == 0
    return manifest, out


def test_mutated_traces_read_alike_over_one_worker_and_two(small_run, capsys):
    manifest, out = small_run
    path = out / "traces.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rng = random.Random(SEED)
    codes = []
    for case in range(CASES):
        path.write_bytes(mutate(rng, lines).encode("utf-8", "surrogateescape"))
        results = []
        for workers in (1, 2):
            for p in out.iterdir():
                if p.name != "traces.csv":
                    p.unlink()
            capsys.readouterr()
            code = cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)],
                            workers=workers)
            err = capsys.readouterr().err
            assert code in (0, 2), case
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
            else:
                assert err == "", (case, err)
            results.append((code, err, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert results[0] == results[1], case
        codes.append(code)
    # Most mutants are refused, and some are read.
    assert 0 < codes.count(0) < codes.count(2)

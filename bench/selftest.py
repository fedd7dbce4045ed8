"""The benchmark's own tests: a tiny pass over both workloads, and one case
per output check that feeds the check a corrupted output and expects it to
fail.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from common import ROOT, load_input_tables  # noqa: E402
from workloads import A12_FLOOR, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Eleven repetitions take the rank-sum's normal approximation, four its exact
# enumeration; 102 rows of a 4^5 space leave most offspring off the table.
TINY = {
    "synth-dense": dataclasses.replace(
        WORKLOADS["synth-dense"], options=4, domain_size=4, repetitions=11,
        round_s=1.0, a12_floor=None),
    "sparse-repair": dataclasses.replace(
        WORKLOADS["sparse-repair"], options=5, domain_size=4, repetitions=4,
        round_s=1.0, a12_floor=None),
}


def test_benchmark_json_matches_the_metrics_reported():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == \
        tracing.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_untraced_pass(name, tmp_path):
    out = run.measure(TINY[name], seed=5, seconds=1, work=tmp_path)
    assert out["correct"]
    assert (out["attempted"], out["failed"]) == (2 + TINY[name].summaries_per_round, 0)
    assert list(out["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_pass(name, tmp_path):
    out = tracing.traced_run(TINY[name], seed=5, work=tmp_path)
    assert out["correct"]
    assert list(out["metrics"]) == list(tracing.PER_LAYER)
    value = {k: m["value"] for k, m in out["metrics"].items()}
    assert value["twin.repair.calls"] == value["twin.repair.passthrough"] + \
        value["twin.repair.memo_hits"] + value["twin.repair.searches"]
    assert value["twin.measure.genuine"] == value["planner.genuine_measurements"]
    if name == "sparse-repair":
        assert value["twin.repair.searches"] > 0
        assert value["stats.wilcoxon_rank_sum.exact_calls"] > 0
    else:
        assert value["twin.repair.searches"] == 0
        assert value["stats.wilcoxon_rank_sum.approx_calls"] > 0
    assert (tmp_path / "spans_run.csv").stat().st_size > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- corrupted outputs ------------------------------------------------------------


@pytest.fixture(scope="module")
def good_round(tmp_path_factory):
    work = tmp_path_factory.mktemp("good")
    assert run.measure(TINY["synth-dense"], seed=3, seconds=1, work=work)["correct"]
    return work / "round0"


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _measurement_rows(rows):
    return [r for r in rows[1:] if r[6] == "0" and r[7] == "0"]


def extra_trace_row(rows):
    rows.insert(5, list(rows[4]))


def best_ft_rises(rows):
    row = next(r for r in _measurement_rows(rows) if float(r[4]) > float(r[5]))
    row[5] = row[4]


def ft_off_table(rows):
    row = next(r for r in _measurement_rows(rows) if float(r[4]) > float(r[5]))
    row[4] = repr(float(row[4]) + 1e-3)


def change_marker_dropped(rows):
    rows.remove(next(r for r in rows[1:] if r[7] == "1"))


def median_perturbed(rows):
    rows[1][1] = repr(float(rows[1][1]) * (1 + 1e-9))


def p_value_perturbed(rows):
    rows[1][1] = repr(float(rows[1][1]) + 1e-6)


def a12_perturbed(rows):
    rows[1][2] = repr(float(rows[1][2]) + 1e-3)


def speedup_perturbed(rows):
    rows[1][2] = repr(float(rows[1][2]) * 1.5 + 1.0)


def trajectory_rises(rows):
    rows[2][2] = repr(float(rows[1][2]) + 1.0)


@pytest.mark.parametrize("name, edit, prefix", [
    ("traces.csv", extra_trace_row, "traces:"),
    ("traces.csv", best_ft_rises, "traces:"),
    ("traces.csv", ft_off_table, "traces:"),
    ("traces.csv", change_marker_dropped, "traces:"),
    ("summary.csv", median_perturbed, "summary:"),
    ("pairwise.csv", p_value_perturbed, "pairwise:"),
    ("pairwise.csv", a12_perturbed, "pairwise:"),
    ("speedups.csv", speedup_perturbed, "speedups:"),
    ("trajectories.csv", trajectory_rises, "trajectories:"),
])
def test_corrupted_output_fails_its_check(good_round, tmp_path, name, edit, prefix):
    results = shutil.copytree(good_round / "results", tmp_path / "results")
    tables = load_input_tables(good_round / "inputs" / "scenario.txt")
    repetitions = TINY["synth-dense"].repetitions
    assert checks.check_outputs(results, tables, repetitions)[0] == []
    _edit_csv(results / name, edit)
    problems, _ = checks.check_outputs(results, tables, repetitions)
    assert any(p.startswith(prefix) for p in problems), problems


def test_a12_below_the_floor_fails():
    lidos = np.asarray([1.0, 2.0, 3.0, 4.0])
    assert checks.check_a12_floor(lidos, lidos + 0.5, A12_FLOOR) == []
    assert checks.check_a12_floor(lidos, lidos, A12_FLOOR)


def test_dropped_synth_row_fails(good_round, tmp_path):
    synth = shutil.copytree(good_round / "synth", tmp_path / "synth")
    spec = TINY["synth-dense"]
    assert checks.check_synth_tables(synth, spec.options, spec.domain_size) == []
    _edit_csv(synth / "env_b.csv", lambda rows: rows.pop())
    assert checks.check_synth_tables(synth, spec.options, spec.domain_size)


def test_input_tables_with_different_plans_fail(good_round):
    tables = load_input_tables(good_round / "inputs" / "scenario.txt")
    rows = len(tables["A"])
    assert checks.check_input_tables(tables, rows) == []
    tables["B"].pop(next(iter(tables["B"])))
    tables["B"][(99,) * TINY["synth-dense"].options] = 0.0
    assert checks.check_input_tables(tables, rows)


def test_changed_rewrite_fails(good_round):
    written = checks.digests(good_round / "results")
    assert checks.check_rewrites(written, dict(written)) == []
    assert checks.check_rewrites(written, {**written, "summary.csv": "0" * 64})

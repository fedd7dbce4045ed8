"""Metamorphic relations: changes to a scenario's input tables whose effect on
every output file is known without knowing the outputs.

Each relation runs the golden sparse scenario (both environments minimized)
and its mixed-direction variant (B maximized) once as given and once
transformed, and compares the two output sets. None of the relations depends
on the random draws, so they hold across any change that re-baselines the
golden digests.
"""

from __future__ import annotations

import csv
import io
import random
import shutil

import pytest

from lidos.cli import main as cli_main
from test_golden import write_sparse_scenario

SCENARIOS = {"sparse": ("minimize", "minimize"), "mixed": ("minimize", "maximize")}
TABLES = {"A": "env_a.csv", "B": "env_b.csv"}
FLIPPED = {"minimize": "maximize", "maximize": "minimize"}


def run(manifest, out) -> dict[str, str]:
    assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
    return {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}


def rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def baseline(request, tmp_path_factory):
    """The scenario's manifest, its environments' directions and its outputs."""
    directory = tmp_path_factory.mktemp(request.param)
    directions = dict(zip(TABLES, SCENARIOS[request.param]))
    manifest = write_sparse_scenario(directory / "inputs", tuple(directions.values()))
    return manifest, directions, run(manifest, directory / "out")


def run_transformed(manifest, tmp_path, env_ids, transform, flip=False) -> dict[str, str]:
    """Run a copy of the scenario whose tables `env_ids` have gone through
    `transform` (data lines to data lines), with those environments'
    directions flipped if asked."""
    inputs = tmp_path / "inputs"
    shutil.copytree(manifest.parent, inputs)
    for env_id in env_ids:
        table = inputs / TABLES[env_id]
        header, *data = table.read_text(encoding="utf-8").splitlines(keepends=True)
        table.write_text(header + "".join(transform(data)), encoding="utf-8")
        if flip:
            text = (inputs / manifest.name).read_text(encoding="utf-8")
            line = next(line for line in text.splitlines() if f" {TABLES[env_id]} " in line)
            direction = line.rsplit(" ", 1)[1]
            text = text.replace(line, line.replace(direction, FLIPPED[direction]))
            (inputs / manifest.name).write_text(text, encoding="utf-8")
    return run(inputs / manifest.name, tmp_path / "out")


def map_performance(convert):
    def transform(data):
        for line in data:
            plan, value = line.rstrip("\n").rsplit(",", 1)
            yield f"{plan},{convert(float(value))!r}\n"
    return transform


def environments_at_marks(traces_text: str, stride: int = 10) -> dict[tuple[str, int], set]:
    """For each (planner, stride mark) of trajectories.csv, the environments
    its repetitions are in at that mark: that of their latest measurement.
    The golden sparse scenario's stride is 10."""
    latest: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for row in rows(traces_text):
        if row["adaptation_sent"] == row["env_change"] == "0":
            latest.setdefault((row["planner"], row["rep"]), []).append(
                (int(row["measurement_index"]), row["env"]))
    found: dict[tuple[str, int], set] = {}
    for (label, _), measured in latest.items():
        for mark in range(stride, measured[-1][0] + stride, stride):
            before = [env for index, env in measured if index <= mark]
            if before:
                found.setdefault((label, mark), set()).add(before[-1])
    return found


@pytest.mark.parametrize("env_id", sorted(TABLES))
def test_negating_a_table_and_flipping_its_direction(baseline, tmp_path, env_id):
    """The canonical values do not move, so neither do the traces, the tests
    and the speedups; every value in the table's units changes sign, and the
    ranks stay."""
    manifest, directions, before = baseline
    after = run_transformed(manifest, tmp_path, [env_id], map_performance(lambda v: -v),
                            flip=True)
    for name in ("traces.csv", "pairwise.csv", "speedups.csv"):
        assert after[name] == before[name], name

    final = env_id == "B"
    for name in ("summary.csv", "ranks.csv"):
        old, new = rows(before[name]), rows(after[name])
        assert [r["planner"] for r in new] == [r["planner"] for r in old]
        for o, n in zip(old, new):
            assert float(n["median"]) == (-1 if final else 1) * float(o["median"])
            assert n["iqr"] == o["iqr"]
            assert n.get("rank") == o.get("rank")
    direction = FLIPPED[directions["B"]] if final else directions["B"]
    assert {r["direction"] for r in rows(after["summary.csv"])} == {direction}

    envs = environments_at_marks(before["traces.csv"])
    old, new = rows(before["trajectories.csv"]), rows(after["trajectories.csv"])
    assert [(r["planner"], r["measurement_index"], r["env_change"]) for r in new] == \
        [(r["planner"], r["measurement_index"], r["env_change"]) for r in old]
    flipped = kept = 0
    for o, n in zip(old, new):
        at = envs[(o["planner"], int(o["measurement_index"]))]
        # A mark whose repetitions are in different legs mixes units.
        if at == {env_id}:
            flipped += 1
            assert float(n["median_best"]) == -float(o["median_best"])
        elif env_id not in at:
            kept += 1
            assert n["median_best"] == o["median_best"]
        else:
            continue
        assert n["iqr_best"] == o["iqr_best"]
    assert flipped and kept


@pytest.mark.parametrize("env_id", sorted(TABLES))
def test_doubling_a_table(baseline, tmp_path, env_id):
    """Doubling is exact in binary and keeps every comparison, so the runs
    take the same paths: that environment's `ft` and `best_ft` double, and
    the tests, speedups and rank order stay."""
    manifest, _, before = baseline
    after = run_transformed(manifest, tmp_path, [env_id], map_performance(lambda v: 2 * v))
    for name in ("pairwise.csv", "speedups.csv"):
        assert after[name] == before[name], name
    assert [(r["planner"], r["rank"]) for r in rows(after["ranks.csv"])] == \
        [(r["planner"], r["rank"]) for r in rows(before["ranks.csv"])]

    old, new = rows(before["traces.csv"]), rows(after["traces.csv"])
    assert len(new) == len(old)
    doubled = 0
    for o, n in zip(old, new):
        for name in ("ft", "best_ft"):
            if o["env"] == env_id and o[name]:
                doubled += 1
                assert float(n[name]) == 2 * float(o[name])
            else:
                assert n[name] == o[name]
        assert {k: v for k, v in n.items() if k not in ("ft", "best_ft")} == \
            {k: v for k, v in o.items() if k not in ("ft", "best_ft")}
    assert doubled

    scale = 2 if env_id == "B" else 1
    for o, n in zip(rows(before["summary.csv"]), rows(after["summary.csv"])):
        assert float(n["median"]) == scale * float(o["median"])
        assert float(n["iqr"]) == scale * float(o["iqr"])


@pytest.mark.parametrize("env_id", sorted(TABLES))
def test_shuffling_a_tables_rows(baseline, tmp_path, env_id):
    """A table is a set of rows: their order in the file changes no byte."""
    manifest, _, before = baseline

    def shuffled(data):
        random.Random(5).shuffle(data)
        return data

    assert run_transformed(manifest, tmp_path, [env_id], shuffled) == before


def test_rescaling_every_options_values(baseline, tmp_path):
    """Plan distances are taken after scaling each option to [0, 1] by its
    span, so a map ``v -> a_j * v + b_j`` with ``a_j > 0`` of every option's
    values in both tables moves no distance, no tie and no plan order: every
    output file keeps its bytes."""
    manifest, _, before = baseline
    scales, offsets = (3, 7, 1, 10, 2, 1, 3, 5), (-4, 0, 11, 2, -1, 5, 0, 3)

    def rescaled(data):
        for line in data:
            *plan, value = line.split(",")
            yield ",".join([str(a * int(v) + b) for a, b, v in zip(scales, offsets, plan)]
                           + [value])

    assert run_transformed(manifest, tmp_path, sorted(TABLES), rescaled) == before

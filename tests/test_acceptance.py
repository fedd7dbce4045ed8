"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from lidos.harness import parse_scenario, run_scenario, summarize_bundle
from lidos.mmo import (
    ScoredPlan,
    assign_auxiliary,
    crowding_distance,
    environmental_selection,
    nondominated_sort,
    transform,
)
from lidos.planner import RunTrace
from lidos.space import ConfigSpace, OptionSpec
from lidos.stats import a12, scott_knott, speedup, split_delta, wilcoxon_rank_sum
from lidos.twin import Environment, load_measurements, synth_tables

from conftest import assert_accounting, dominates

DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"criterion {number}: SKIP  {title}")
                raise
            except BaseException:
                print(f"criterion {number}: FAIL  {title}")
                raise
            print(f"criterion {number}: PASS  {title}")
        return wrapper
    return decorate


def random_scored_pool(rng: random.Random, space: ConfigSpace, max_size: int = 40):
    size = rng.randint(2, max_size)
    pool = [
        ScoredPlan(space.random_plan(rng), ft=rng.uniform(0, 100))
        for _ in range(size)
    ]
    assign_auxiliary(pool, space)
    for member in pool:
        transform(member)
    return pool


SMALL_SPACE = ConfigSpace(
    options=(
        OptionSpec("a", (0, 1, 2, 3)),
        OptionSpec("b", (0, 1, 2, 3)),
        OptionSpec("c", (0, 1)),
    )
)


@criterion(1, "bi-objective transform never inverts a target-value ordering")
def test_dominance_preservation():
    rng = random.Random(101)
    for _ in range(10_000):
        ft1 = rng.uniform(-1e6, 1e6)
        ft2 = ft1 + rng.uniform(1e-9, 1e6)
        s1 = transform(ScoredPlan((0,), ft=ft1, fa=rng.uniform(-1e6, 1e6)))
        s2 = transform(ScoredPlan((1,), ft=ft2, fa=rng.uniform(-1e6, 1e6)))
        assert not dominates(s2, s1)


@criterion(2, "the target-minimal plan always lands in front rank 0")
def test_global_optimum_retention():
    rng = random.Random(202)
    for _ in range(1000):
        pool = random_scored_pool(rng, SMALL_SPACE)
        best = min(pool, key=lambda s: s.ft)
        fronts = nondominated_sort(pool)
        assert any(best is member for member in fronts[0])


def oracle_fronts(pool):
    remaining = list(pool)
    fronts = []
    while remaining:
        front = [
            a
            for a in remaining
            if not any(dominates(b, a) for b in remaining if b is not a)
        ]
        fronts.append(front)
        kept = set(map(id, front))
        remaining = [a for a in remaining if id(a) not in kept]
    return fronts


def oracle_selection(union, n):
    survivors = []
    for front in oracle_fronts(union):
        crowding_distance(front)
        if len(survivors) + len(front) <= n:
            survivors.extend(front)
        else:
            survivors.extend(sorted(front, key=lambda m: -m.crowding)[: n - len(survivors)])
            break
    return survivors


@criterion(3, "fast nondominated sort and truncation match brute-force oracles")
def test_sorting_oracle_equivalence():
    rng = random.Random(303)
    for _ in range(1000):
        pool = random_scored_pool(rng, SMALL_SPACE)
        got = nondominated_sort(pool)
        want = oracle_fronts(pool)
        assert [sorted(map(id, f)) for f in got] == [
            sorted(map(id, f)) for f in want
        ]
        n = rng.randint(1, len(pool))
        picked = environmental_selection(list(pool), n)
        reference = oracle_selection(list(pool), n)
        assert sorted(map(id, picked)) == sorted(map(id, reference))


def write_dataset_csv(table, path: Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(table.option_names) + ["performance"])
    for plan in sorted(table.rows):
        writer.writerow(list(plan) + [repr(table.rows[plan])])
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_scenario(tmp_path: Path, *, seed: int, repetitions: int, planners: str,
                   budget: int, k: int = 150, synth_kwargs: dict | None = None) -> Path:
    table_a, table_b = synth_tables(**(synth_kwargs or {}))
    write_dataset_csv(table_a, tmp_path / "env_a.csv")
    write_dataset_csv(table_b, tmp_path / "env_b.csv")
    manifest = tmp_path / "scenario.txt"
    manifest.write_text(
        "system: synth_acceptance\n"
        f"seed: {seed}\n"
        f"repetitions: {repetitions}\n"
        f"k: {k}\n"
        "stride: 15\n"
        f"planners: {planners}\n"
        "environment: A env_a.csv minimize\n"
        "environment: B env_b.csv minimize\n"
        f"leg: A {budget}\n"
        f"leg: B {budget}\n",
        encoding="utf-8",
    )
    return manifest


@criterion(4, "twin counter equals distinct plans evaluated per epoch, all planners")
def test_measurement_accounting_law(tmp_path, twin_probe):
    manifest = write_scenario(
        tmp_path, seed=5, repetitions=2,
        planners="lidos, lidos_sta, pseudo_dynamic, stationary",
        budget=40, k=40,
        synth_kwargs=dict(n_options=3, domain_size=4, n_peaks=4, noise_seed=2),
    )
    bundle = run_scenario(parse_scenario(manifest))
    assert len(twin_probe) == len(bundle.traces) == 4 * 2
    for trace, (twin, epochs) in zip(bundle.traces.values(), twin_probe.items()):
        assert len(epochs) == 2
        assert_accounting(trace, twin, epochs)


def exact_rank_sum_oracle(xs, ys):
    combined = list(xs) + list(ys)
    order = sorted(range(len(combined)), key=lambda i: combined[i])
    doubled = [0] * len(combined)
    i = 0
    while i < len(combined):
        j = i
        while j + 1 < len(combined) and combined[order[j + 1]] == combined[order[i]]:
            j += 1
        for k in range(i, j + 1):
            doubled[order[k]] = (i + 1) + (j + 1)
        i = j + 1
    n1 = len(xs)
    mu2 = n1 * (len(combined) + 1)
    obs = abs(sum(doubled[: n1]) - mu2)
    extreme = total = 0
    for combo in itertools.combinations(range(len(combined)), n1):
        total += 1
        if abs(sum(doubled[i] for i in combo) - mu2) >= obs:
            extreme += 1
    return extreme / total


@criterion(5, "statistics match exact oracles (rank sums, effect sizes, ranking)")
def test_statistics_oracles():
    rng = random.Random(404)
    for n1 in range(1, 10):
        for n2 in range(1, 11 - n1):
            for _ in range(4):
                pool = [0.0, 1.0, 2.0, 5.5]
                xs = [rng.choice(pool) for _ in range(n1)]
                ys = [rng.choice(pool) for _ in range(n2)]
                assert wilcoxon_rank_sum(xs, ys) == pytest.approx(
                    exact_rank_sum_oracle(xs, ys), abs=1e-6
                )
                xs = [rng.uniform(0, 5) for _ in range(n1)]
                ys = [rng.uniform(0, 5) for _ in range(n2)]
                assert wilcoxon_rank_sum(xs, ys) == pytest.approx(
                    exact_rank_sum_oracle(xs, ys), abs=1e-6
                )

    for _ in range(200):
        xs = [rng.randint(0, 6) for _ in range(rng.randint(1, 10))]
        ys = [rng.randint(0, 6) for _ in range(rng.randint(1, 10))]
        wins = sum(1 for x in xs for y in ys if x < y)
        ties = sum(1 for x in xs for y in ys if x == y)
        assert a12(xs, ys) == (wins + 0.5 * ties) / (len(xs) * len(ys))

    ranks = scott_knott({"p": (0.0,) * 10, "q": (0.0,) * 10, "r": (5.0,) * 10},
                        random.Random(0))
    assert ranks == {"p": 1, "q": 1, "r": 2}
    assert max(ranks.values()) == 2

    assert split_delta([1, 1], [5, 5]) == 4.0


@pytest.fixture(scope="module")
def benchmark_bundle(tmp_path_factory):
    """The desk-scale dynamic-vs-stationary experiment shared by the
    direction and efficiency criteria: default synthetic landscape, all four
    planners, 50 repetitions, 150-measurement legs."""
    tmp_path = tmp_path_factory.mktemp("acceptance")
    manifest = write_scenario(
        tmp_path, seed=17, repetitions=50,
        planners="lidos, lidos_sta, pseudo_dynamic, stationary",
        budget=150,
    )
    return run_scenario(parse_scenario(manifest))


@criterion(6, "dynamic beats its restart variant after a change (A12 >= 0.56)")
def test_dynamic_beats_stationary_direction(benchmark_bundle):
    assert len(benchmark_bundle.traces) == 4 * 50
    assert all(t.events["env_change"].sum() == 1
               for t in benchmark_bundle.traces.values())
    lidos = benchmark_bundle.final_values("lidos")
    restart = benchmark_bundle.final_values("lidos_sta")
    effect = a12(lidos, restart)
    print(f"  [A12 lidos vs lidos_sta = {effect:0.3f}]", end=" ")
    assert effect >= 0.56
    summary = summarize_bundle(benchmark_bundle)
    ranks = {e.label: e.rank for e in summary.ranks}
    assert ranks["lidos"] <= ranks["lidos_sta"]


@criterion(7, "post-change speedup: median >= 1 and hand arithmetic exact")
def test_speedup_metric(benchmark_bundle):
    values = [
        speedup(
            benchmark_bundle.traces[("stationary", rep)],
            benchmark_bundle.traces[("lidos", rep)],
        )
        for rep in range(benchmark_bundle.spec.repetitions)
    ]
    # A repetition lidos never matched (inf) is a loss, not a win: the median
    # is over the matched repetitions, as in the summary.
    matched = [value for value in values if value != math.inf]
    med = statistics.median(matched)
    print(f"  [median speedup vs stationary = {med:g}, "
          f"missed {len(values) - len(matched)} of {len(values)}]", end=" ")
    assert med >= 1.0

    def hand_trace(post):
        trace = RunTrace()
        trace.record("A", 99.0)
        trace.record("B", env_change=True)
        for ft in post:
            trace.record("B", ft)
        return trace

    base = hand_trace([50.0] * 99 + [10.0] + [20.0] * 20)
    fast = hand_trace([30.0] * 19 + [10.0] + [25.0] * 100)
    assert speedup(base, fast) == 5.0
    assert speedup(base, base) == 1.0


REFERENCE_DATASETS = {
    "storm": (("storm_wordcount.csv", "storm_rollingcount.csv"), 12, 1914, "maximize"),
    "keras": (("keras_shapesall.csv", "keras_adiac.csv"), 12, 16384, "maximize"),
    "x264": (("x264_128_44.csv", "x264_8_2.csv"), 17, 53662, "minimize"),
}


@criterion(8, "reference datasets reproduce known sizes and the dynamic-first ordering")
def test_reference_dataset_reproduction(tmp_path):
    if not DATASET_DIR.is_dir():
        pytest.skip(f"reference datasets not present under {DATASET_DIR}")
    for system, (files, n_options, n_rows, direction) in REFERENCE_DATASETS.items():
        for name in files:
            path = DATASET_DIR / name
            if not path.is_file():
                pytest.skip(f"missing dataset {path}")
            table = load_measurements(path, Environment(name, direction=direction))
            assert len(table) == n_rows, f"{name}: expected {n_rows} rows"
            assert len(table.option_names) == n_options

    manifest = tmp_path / "storm.txt"
    manifest.write_text(
        "system: storm\n"
        "seed: 17\n"
        "repetitions: 50\n"
        "k: 150\n"
        "planners: lidos, lidos_sta\n"
        f"environment: rollingcount {DATASET_DIR / 'storm_rollingcount.csv'} maximize\n"
        f"environment: wordcount {DATASET_DIR / 'storm_wordcount.csv'} maximize\n"
        "leg: rollingcount 150\n"
        "leg: wordcount 150\n",
        encoding="utf-8",
    )
    bundle = run_scenario(parse_scenario(manifest))
    medians = summarize_bundle(bundle).summaries  # in the final environment's units
    assert medians["lidos"].median >= medians["lidos_sta"].median  # throughput: higher is better


@criterion(9, "identical seeded runs produce byte-identical trace CSVs")
def test_cli_determinism(tmp_path):
    manifest = write_scenario(
        tmp_path, seed=0, repetitions=3, planners="lidos, stationary",
        budget=30, k=30,
        synth_kwargs=dict(n_options=3, domain_size=4, n_peaks=4, noise_seed=3),
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "lidos", "run",
             "--scenario", str(manifest), "--out", str(out), "--seed", "7"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0].keys() == outputs[1].keys()
    assert "traces.csv" in outputs[0]
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    assert len(outputs[0]["traces.csv"]) > 0

from __future__ import annotations

import concurrent.futures.process
import csv
import gc
import io
import itertools
import os
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from lidos.cli import main as cli_main
from lidos.harness import (
    ScenarioSpec,
    bundle_from_traces,
    emit_trajectories,
    parse_scenario,
    planner_labels,
    read_traces_csv,
    run_scenario,
    summarize_bundle,
    trajectory_rows,
    traces_csv_text,
    write_atomic,
)
from lidos.baselines import StationaryPlanner
from lidos.harness import ResultBundle
from lidos.planner import PlannerParams, RunTrace, derive_seed
from lidos.twin import synth_landscape


def write_small_dataset(tmp_path: Path, **kwargs) -> Path:
    """Synthesize a small two-environment dataset plus manifest; returns the
    manifest path."""
    defaults = dict(n_options=3, domain_size=4, n_peaks=4, noise_seed=1)
    defaults.update(kwargs)
    table_a, table_b = synth_landscape(**defaults)
    for name, table in (("env_a.csv", table_a), ("env_b.csv", table_b)):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(table.option_names) + ["performance"])
        for plan in sorted(table.rows):
            writer.writerow(list(plan) + [repr(table.rows[plan])])
        (tmp_path / name).write_text(buf.getvalue(), encoding="utf-8")
    manifest = tmp_path / "scenario.txt"
    manifest.write_text(
        "system: smoke\n"
        "seed: 11\n"
        "repetitions: 2\n"
        "k: 30\n"
        "stride: 10\n"
        "planners: lidos, stationary\n"
        "environment: A env_a.csv minimize\n"
        "environment: B env_b.csv minimize\n"
        "leg: A 30\n"
        "leg: B 30\n",
        encoding="utf-8",
    )
    return manifest


class TestParseScenario:
    def test_round_trip_fields(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        spec = parse_scenario(manifest)
        assert spec.system == "smoke"
        assert spec.base_seed == 11
        assert spec.repetitions == 2
        assert spec.k == 30
        assert spec.trajectory_stride == 10
        assert spec.planners == ("lidos", "stationary")
        assert [leg.env_id for leg in spec.legs] == ["A", "B"]
        assert spec.environments[0].dataset_path == tmp_path / "env_a.csv"

    def test_units_token(self, tmp_path):
        write_small_dataset(tmp_path)
        manifest = tmp_path / "u.txt"
        manifest.write_text(
            "system: s\nenvironment: A env_a.csv maximize msgs/min\n"
            "environment: B env_b.csv minimize\nleg: A 30\nleg: B 30\n",
            encoding="utf-8",
        )
        spec = parse_scenario(manifest)
        assert spec.environments[0].environment.units == "msgs/min"
        assert spec.environments[0].environment.direction == "maximize"

    def test_unknown_key(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("system: s\nbudget: 12\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key"):
            parse_scenario(manifest)

    def test_missing_system(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("seed: 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="system"):
            parse_scenario(manifest)

    def test_bad_direction(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text(
            "system: s\nenvironment: A a.csv sideways\nleg: A 30\nleg: A 30\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="direction"):
            parse_scenario(manifest)

    def test_single_leg_rejected(self, tmp_path):
        write_small_dataset(tmp_path)
        manifest = tmp_path / "one.txt"
        manifest.write_text(
            "system: s\nenvironment: A env_a.csv minimize\nleg: A 30\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="two legs"):
            parse_scenario(manifest)

    def test_undeclared_leg_environment(self, tmp_path):
        write_small_dataset(tmp_path)
        manifest = tmp_path / "bad.txt"
        manifest.write_text(
            "system: s\nenvironment: A env_a.csv minimize\nleg: A 30\nleg: C 30\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="undeclared"):
            parse_scenario(manifest)

    def test_environment_may_follow_its_leg(self, tmp_path):
        write_small_dataset(tmp_path)
        manifest = tmp_path / "late.txt"
        manifest.write_text(
            "system: s\nleg: A 30\nleg: B 30\n"
            "environment: A env_a.csv minimize\nenvironment: B env_b.csv minimize\n",
            encoding="utf-8",
        )
        assert [leg.env_id for leg in parse_scenario(manifest).legs] == ["A", "B"]

    def test_unknown_planner(self, tmp_path):
        write_small_dataset(tmp_path)
        manifest = tmp_path / "bad.txt"
        manifest.write_text(
            "system: s\nplanners: lidos, annealer\n"
            "environment: A env_a.csv minimize\nleg: A 30\nleg: A 30\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="unknown planner"):
            parse_scenario(manifest)


class TestPlannerLabels:
    def test_unique_pass_through(self):
        assert planner_labels(("lidos", "stationary")) == [
            ("lidos", "lidos"),
            ("stationary", "stationary"),
        ]

    def test_duplicates_suffixed(self):
        assert planner_labels(("lidos", "lidos", "stationary")) == [
            ("lidos", "lidos"),
            ("lidos@2", "lidos"),
            ("stationary", "stationary"),
        ]


@pytest.fixture(scope="module")
def smoke_bundle(tmp_path_factory):
    manifest = write_small_dataset(tmp_path_factory.mktemp("smoke"))
    spec = parse_scenario(manifest)
    return run_scenario(spec, PlannerParams(population_size=10, k=spec.k))


class TestRunScenario:
    def test_trace_shape(self, smoke_bundle):
        spec = smoke_bundle.spec
        assert smoke_bundle.labels == ("lidos", "stationary")
        for label in smoke_bundle.labels:
            for rep in range(spec.repetitions):
                trace = smoke_bundle.traces[(label, rep)]
                assert trace.events["env_change"].sum() == 1
                indices = trace.events["measurement_index"][trace.measurement_mask()].tolist()
                assert indices == sorted(set(indices))
                assert indices[-1] == smoke_bundle.final_counters[(label, rep)]

    def test_deterministic_bytes(self, smoke_bundle, tmp_path):
        manifest = write_small_dataset(tmp_path)
        spec = parse_scenario(manifest)
        again = run_scenario(spec, PlannerParams(population_size=10, k=spec.k))
        assert traces_csv_text(again) == traces_csv_text(smoke_bundle)

    def test_budget_below_population_rejected(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        spec = parse_scenario(manifest)
        with pytest.raises(ValueError, match="below the population size"):
            run_scenario(spec, PlannerParams(population_size=32))

    def test_dataset_mismatch_rejected(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        # Shrink environment B's dataset so its implied space differs.
        b_path = tmp_path / "env_b.csv"
        lines = b_path.read_text(encoding="utf-8").splitlines()
        b_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        spec = parse_scenario(manifest)
        with pytest.raises(ValueError, match="mismatch"):
            run_scenario(spec, PlannerParams(population_size=10))

    def test_duplicate_planner_kinds_identical_results(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        spec = parse_scenario(manifest)
        spec = ScenarioSpec(
            system=spec.system,
            environments=spec.environments,
            legs=spec.legs,
            planners=("lidos", "lidos"),
            repetitions=2,
            k=spec.k,
            base_seed=spec.base_seed,
            trajectory_stride=spec.trajectory_stride,
        )
        bundle = run_scenario(spec, PlannerParams(population_size=10, k=spec.k))
        assert bundle.final_values("lidos") == bundle.final_values("lidos@2")
        summary = summarize_bundle(bundle)
        ranks = {e.label: e.rank for e in summary.ranks}
        assert ranks["lidos"] == ranks["lidos@2"]
        assert summary.pairwise[0].p_value == 1.0


class TestParallelRun:
    """More than one worker forks a pool; one worker never does. A failure in
    a worker ends `lidos run` as cleanly as a failure in the serial loop."""

    def test_one_worker_creates_no_pool(self, tmp_path, monkeypatch):
        spec = parse_scenario(write_small_dataset(tmp_path))
        params = PlannerParams(population_size=10, k=spec.k)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", no_pool)
        assert len(run_scenario(spec, params, workers=1).traces) == 4
        with pytest.raises(AssertionError, match="a process pool was created"):
            run_scenario(spec, params, workers=2)

    def test_value_error_in_a_worker_exits_2_as_in_the_serial_loop(
            self, tmp_path, capsys, monkeypatch):
        manifest = write_small_dataset(tmp_path)
        failing = derive_seed(11, "stationary", 1)
        change = StationaryPlanner.on_environment_change

        def failing_change(self, env):
            if self.base_seed == failing:
                raise ValueError("stationary repetition 1 cannot change environment")
            change(self, env)

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(StationaryPlanner, "on_environment_change", failing_change)
        errors = []
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)],
                            workers=workers) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors == ["error: stationary repetition 1 cannot change environment\n"] * 2

    def test_dead_worker_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        manifest = write_small_dataset(tmp_path)
        parent = os.getpid()
        change = StationaryPlanner.on_environment_change

        def dying_change(self, env):
            if os.getpid() != parent:
                os._exit(1)
            change(self, env)

        monkeypatch.setattr(StationaryPlanner, "on_environment_change", dying_change)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)], workers=2) == 2
        assert capsys.readouterr().err == (
            "error: a worker process ended abruptly before returning its repetition\n")
        assert not out.exists()


class TestSummaries:
    def test_reproducible_from_traces_alone(self, smoke_bundle, tmp_path):
        path = tmp_path / "traces.csv"
        write_atomic(path, traces_csv_text(smoke_bundle))
        rebuilt = bundle_from_traces(smoke_bundle.spec, path)
        got = summarize_bundle(rebuilt)
        want = summarize_bundle(smoke_bundle)
        assert got.summaries == want.summaries
        assert got.ranks == want.ranks
        assert got.pairwise == want.pairwise
        assert got.speedups == want.speedups

    def test_strict_domination_gives_full_effect_and_sole_rank(self, smoke_bundle):
        def fabricated_trace(pre_best, post_best):
            trace = RunTrace()
            trace.record(1, "A", (0,), pre_best, pre_best)
            trace.record(1, "B", None, env_change=True)
            trace.record(2, "B", (0,), post_best, post_best)
            return trace

        # Two repetitions cannot clear a 99% bootstrap; use a realistic count.
        spec = replace(smoke_bundle.spec, repetitions=20)
        traces = {}
        for rep in range(spec.repetitions):
            traces[("lidos", rep)] = fabricated_trace(5.0, 1.0 + rep * 0.01)
            traces[("stationary", rep)] = fabricated_trace(5.0, 9.0 + rep * 0.01)
        bundle = ResultBundle(spec=spec, labels=("lidos", "stationary"),
                              traces=traces)
        summary = summarize_bundle(bundle)
        assert summary.pairwise[0].effect == 1.0
        assert {e.label: e.rank for e in summary.ranks} == {"lidos": 1, "stationary": 2}

    def test_traces_override_manifest_repetitions(self, smoke_bundle, tmp_path):
        path = tmp_path / "traces.csv"
        write_atomic(path, traces_csv_text(smoke_bundle))
        # Manifest says 50 repetitions, but the run was executed with 2; the
        # trace file wins.
        widened = ScenarioSpec(
            system=smoke_bundle.spec.system,
            environments=smoke_bundle.spec.environments,
            legs=smoke_bundle.spec.legs,
            planners=smoke_bundle.spec.planners,
            repetitions=50,
            k=smoke_bundle.spec.k,
            base_seed=smoke_bundle.spec.base_seed,
        )
        rebuilt = bundle_from_traces(widened, path)
        assert rebuilt.spec.repetitions == 2
        assert summarize_bundle(rebuilt).summaries == summarize_bundle(smoke_bundle).summaries

    def test_pairwise_targets_every_baseline(self, smoke_bundle):
        summary = summarize_bundle(smoke_bundle)
        assert [row.label for row in summary.pairwise] == ["stationary"]
        assert [row.label for row in summary.speedups] == ["stationary"]
        assert len(summary.speedups[0].values) == smoke_bundle.spec.repetitions

    def test_reading_traces_restores_the_collector(self, smoke_bundle, tmp_path):
        good, bad = tmp_path / "traces.csv", tmp_path / "bad.csv"
        write_atomic(good, traces_csv_text(smoke_bundle))
        write_atomic(bad, "planner\n")
        assert gc.isenabled()
        read_traces_csv(good)
        assert gc.isenabled()
        with pytest.raises(ValueError, match="unexpected trace header"):
            read_traces_csv(bad)
        assert gc.isenabled()
        gc.disable()
        try:
            read_traces_csv(good)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_interleaved_trace_rows_give_the_same_summary(self, tmp_path):
        """Rows of different (planner, rep) may alternate in traces.csv; each
        key's rows keep their order, and the summary keeps its bytes."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "traces.csv"}
        path = out / "traces.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        by_key: dict[tuple[str, ...], list[str]] = {}
        for row in rows:
            by_key.setdefault(tuple(row.split(",")[:2]), []).append(row)
        dealt = [row for turn in itertools.zip_longest(*by_key.values())
                 for row in turn if row is not None]
        assert len(by_key) > 1 and dealt != rows
        path.write_text(header + "".join(dealt), encoding="utf-8")
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "traces.csv"} == before

    def test_trajectory_rows_shape(self, smoke_bundle):
        rows = trajectory_rows(
            replace(smoke_bundle, spec=replace(smoke_bundle.spec, trajectory_stride=10)))
        per_planner = {label: [r for r in rows if r[0] == label]
                       for label in smoke_bundle.labels}
        for label, sub in per_planner.items():
            assert [r[1] for r in sub] == [10, 20, 30, 40, 50, 60]
            assert sum(r[4] for r in sub) == 1  # one change marker per scenario
            flagged = [r for r in sub if r[4]][0]
            assert flagged[1] == 30  # nominal boundary after leg A's budget

    def test_emit_trajectories_writes_table(self, smoke_bundle, tmp_path):
        path = tmp_path / "traj.csv"
        emit_trajectories(
            replace(smoke_bundle, spec=replace(smoke_bundle.spec, trajectory_stride=15)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(
            ("planner", "measurement_index", "median_best", "iqr_best", "env_change")
        )
        # 60 nominal measurements at stride 15 -> 4 rows per planner.
        assert len(lines) == 1 + 4 * len(smoke_bundle.labels)

    def test_trajectory_median_monotone_within_epoch(self, smoke_bundle):
        rows = [r for r in trajectory_rows(
            replace(smoke_bundle, spec=replace(smoke_bundle.spec, trajectory_stride=5)))
            if r[0] == "lidos"]
        first_epoch = [r[2] for r in rows if r[1] <= 30]
        # Legs stop at generation granularity, so the actual change lands
        # within one generation past the nominal boundary; start the
        # second-epoch check safely beyond that.
        second_epoch = [r[2] for r in rows if r[1] >= 45]
        assert first_epoch == sorted(first_epoch, reverse=True)
        assert second_epoch == sorted(second_epoch, reverse=True)


class TestCli:
    def test_run_then_summarize_round_trip(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        produced = {p.name for p in out.iterdir()}
        assert {"traces.csv", "trajectories.csv", "summary.csv", "pairwise.csv",
                "ranks.csv", "speedups.csv", "summary.txt"} <= produced
        before = {name: (out / name).read_bytes()
                  for name in ("summary.csv", "ranks.csv", "pairwise.csv", "speedups.csv")}
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 0
        for name, content in before.items():
            assert (out / name).read_bytes() == content

    def test_trajectories_verb(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        (out / "trajectories.csv").unlink()
        assert cli_main(["trajectories", "--scenario", str(manifest),
                         "--out", str(out), "--stride", "5"]) == 0
        header = (out / "trajectories.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "planner,measurement_index,median_best,iqr_best,env_change"

    def test_synth_verb_emits_runnable_scenario(self, tmp_path):
        out = tmp_path / "synth"
        assert cli_main(["synth", "--out", str(out), "--options", "3",
                         "--domain-size", "4", "--peaks", "4", "--seed", "5"]) == 0
        spec = parse_scenario(out / "scenario.txt")
        assert {src.environment.id for src in spec.environments} == {"A", "B"}
        run_out = tmp_path / "runout"
        assert cli_main(["run", "--scenario", str(out / "scenario.txt"),
                         "--out", str(run_out), "--repetitions", "1",
                         "--planners", "lidos"]) == 0
        assert (run_out / "traces.csv").exists()

    def test_overrides_change_spec(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out1),
                         "--seed", "1", "--repetitions", "1",
                         "--planners", "lidos"]) == 0
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out2),
                         "--seed", "2", "--repetitions", "1",
                         "--planners", "lidos"]) == 0
        assert (out1 / "traces.csv").read_bytes() != (out2 / "traces.csv").read_bytes()

    def test_error_exit_code_and_diagnostic(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        code = cli_main(["run", "--scenario", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_option_cell_exits_2_with_location(self, tmp_path, capsys):
        manifest = write_small_dataset(tmp_path)
        path = tmp_path / "env_a.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = "inf" + lines[3][lines[3].index(","):]
        path.write_text("".join(lines), encoding="utf-8")
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "env_a.csv:4: option value 'inf' is not an integer" in capsys.readouterr().err

    def test_repeated_option_name_exits_2_at_the_header(self, tmp_path, capsys):
        manifest = write_small_dataset(tmp_path)
        path = tmp_path / "env_a.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = "o1,o1,o3,performance\n"
        path.write_text("".join(lines), encoding="utf-8")
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{path}:1: duplicate option name(s): ['o1']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, lineno", [
        ("seed", 2), ("repetitions", 3), ("k", 4), ("stride", 5),
    ])
    def test_bad_integer_field_exits_2_at_its_line(self, tmp_path, capsys, key, lineno):
        manifest = write_small_dataset(tmp_path)
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[lineno - 1].startswith(f"{key}:")
        lines[lineno - 1] = f"{key}: abc\n"
        manifest.write_text("".join(lines), encoding="utf-8")
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"scenario.txt:{lineno}: expected an integer, got 'abc'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("old, new, message", [
        ("planners: lidos, stationary\n", "planners: lidos, nope\n",
         "scenario.txt:6: unknown planner kind 'nope'"),
        ("leg: B 30\n", "leg: C 150\n",
         "scenario.txt:10: leg references undeclared environment 'C'"),
        ("repetitions: 2\n", "repetitions: 0\n", "scenario.txt:3: repetitions must be positive"),
        ("k: 30\n", "k: 0\n", "scenario.txt:4: k must be positive"),
        ("leg: B 30\n", "leg: B 0\n", "scenario.txt:10: leg budgets must be positive"),
        ("environment: B env_b.csv minimize\n",
         "environment: B env_b.csv minimize\nenvironment: A env_a.csv minimize\n",
         "scenario.txt:9: duplicate environment id 'A'"),
        ("planners: lidos, stationary\n", "planners: ,,\n",
         "scenario.txt:6: scenario lists no planners"),
    ], ids=["unknown-planner", "undeclared-environment", "zero-repetitions", "zero-k",
            "zero-leg-budget", "duplicate-environment", "empty-planners"])
    def test_manifest_value_error_names_its_line(self, tmp_path, capsys, old, new, message):
        manifest = write_small_dataset(tmp_path)
        text = manifest.read_text(encoding="utf-8")
        assert old in text
        manifest.write_text(text.replace(old, new), encoding="utf-8")
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "error: --k: k must be positive"),
        (["--k", "abc"], "error: --k: expected an integer, got 'abc'"),
        (["--planners", "nope"], "error: --planners: unknown planner kind 'nope'"),
    ], ids=["zero-k", "word-k", "unknown-planner"])
    def test_flag_value_error_names_its_flag(self, tmp_path, capsys, flags, message):
        manifest = write_small_dataset(tmp_path)
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o"),
                         *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_flag_replaces_a_bad_manifest_value_before_it_is_checked(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("repetitions: 2\n", "repetitions: 0\n"),
                            encoding="utf-8")
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o"),
                         "--repetitions", "1"]) == 0

    def test_oversized_dataset_cell_exits_2_at_its_line(self, tmp_path, capsys):
        """A cell past the csv module's field limit used to escape as a
        csv.Error traceback."""
        manifest = write_small_dataset(tmp_path)
        path = tmp_path / "env_a.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "9" * 200_000 + lines[2]
        path.write_text("".join(lines), encoding="utf-8")
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "env_a.csv:3: field larger than field limit" in capsys.readouterr().err

    def test_oversized_trace_cell_exits_2_at_its_line(self, tmp_path, capsys):
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = "x" * 200_000 + lines[4]
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert "traces.csv:5: field larger than field limit" in capsys.readouterr().err

    # Line 5 is a measurement row of the first leg.
    @pytest.mark.parametrize("damage, message", [
        (lambda cells: cells[:-1], "expected 8 cells, got 7"),
        (lambda cells: cells[:1] + ["x"] + cells[2:], "invalid literal for int()"),
        (lambda cells: cells[:4] + ["fast"] + cells[5:], "could not convert string to float"),
        (lambda cells: cells[:6] + ["2", "0"], "adaptation_sent must be 0 or 1"),
        (lambda cells: cells[:6] + ["0", "true"], "env_change must be 0 or 1"),
        (lambda cells: cells[:6] + ["1", "1"],
         "a row cannot be both an adaptation and an environment change"),
        (lambda cells: cells[:4] + [""] + cells[5:],
         "a measurement or adaptation row needs a finite ft"),
        (lambda cells: cells[:5] + ["nan"] + cells[6:],
         "a measurement or adaptation row needs a finite best_ft"),
        (lambda cells: cells[:7] + ["1"], "an environment-change row leaves ft empty"),
    ], ids=["short-row", "bad-rep", "bad-ft", "flag-2", "flag-word", "both-flags",
            "empty-ft", "nan-best-ft", "valued-change"])
    def test_damaged_trace_row_exits_2_with_location(self, tmp_path, capsys, damage, message):
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = ",".join(damage(lines[4].rstrip("\n").split(","))) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "traces.csv:5: " in err and message in err

    def test_empty_ft_after_the_change_exits_2(self, tmp_path, capsys):
        """A baseline's first measurement after the change with an empty ft
        used to crash the speedup with a TypeError."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        change = next(i for i, line in enumerate(lines)
                      if line.startswith("stationary,") and line.endswith(",0,1\n"))
        cells = lines[change + 1].split(",")
        cells[4] = ""
        lines[change + 1] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert (f"traces.csv:{change + 2}: a measurement or adaptation row needs a finite ft"
                in capsys.readouterr().err)

    def test_stale_temporary_directory_does_not_block_a_run(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        (out / "summary.csv.tmp").mkdir(parents=True)
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        assert (out / "summary.csv").is_file()
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp") and p.is_file()]

    def test_maximize_direction_reported_in_original_units(self, tmp_path):
        write_small_dataset(tmp_path)
        manifest = tmp_path / "max.txt"
        manifest.write_text(
            "system: s\nseed: 3\nrepetitions: 2\nplanners: lidos\n"
            "environment: A env_a.csv maximize\nenvironment: B env_b.csv maximize\n"
            "leg: A 30\nleg: B 30\n",
            encoding="utf-8",
        )
        spec = parse_scenario(manifest)
        bundle = run_scenario(spec, PlannerParams(population_size=10))
        group = bundle.sample_group("lidos")
        assert group.direction == "maximize"
        # Raw table values are negative of the canonical trace values.
        assert all(v <= 0 for v in group.values)


class TestWriteAtomic:
    def test_each_call_writes_its_own_temporary(self, tmp_path, monkeypatch):
        sources = []
        real_replace = os.replace

        def recording_replace(src, dst):
            sources.append(Path(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        write_atomic(tmp_path / "a.csv", "one\n")
        write_atomic(tmp_path / "a.csv", "two\n")
        assert len(set(sources)) == 2
        assert all(src.parent == tmp_path for src in sources)
        assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_failed_rename_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "taken"
        (target / "inner").mkdir(parents=True)
        with pytest.raises(OSError):
            write_atomic(target, "content\n")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_run_with_different_row_sets(tmp_path):
    """Two 4^3 tables split by the parity of sum(plan): every planner keeps
    running across the change."""
    header = "o1,o2,o3,performance\n"
    rows = {"a": [header], "b": [header]}
    for i, plan in enumerate(itertools.product(range(4), repeat=3)):
        rows["a" if sum(plan) % 2 else "b"].append(
            ",".join(map(str, plan)) + f",{(i * 37) % 11 + 0.5}\n")
    for name, lines in rows.items():
        (tmp_path / f"env_{name}.csv").write_text("".join(lines), encoding="utf-8")
    manifest = tmp_path / "scenario.txt"
    manifest.write_text(
        "system: parity\nseed: 1\nrepetitions: 2\nk: 20\nstride: 5\n"
        "planners: lidos, lidos_sta, pseudo_dynamic, stationary\n"
        "environment: A env_a.csv minimize\nenvironment: B env_b.csv minimize\n"
        "leg: A 20\nleg: B 20\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
    assert (out / "traces.csv").stat().st_size > 0


@pytest.mark.parametrize("seed", range(6))
def test_accounting_law_over_returning_legs(tmp_path, seed):
    """Seeded 3-4 leg scenarios that return to A, over sparse tables with
    different rows per environment and duplicate-heavy values, for every
    planner: no plan is measured twice in one epoch, the epochs' counts sum
    to the final counter, and the epoch after a return to A measures afresh
    plans already measured in A's first epoch."""
    rng = random.Random(seed)
    domains = [range(rng.randint(3, 5)) for _ in range(3)]
    plans = list(itertools.product(*domains))
    ids = ("A", "B", "C")
    for env_id in ids:
        # Every table keeps the diagonal plans, so all imply one space.
        kept = [p for p in plans if len(set(p)) == 1 or rng.random() < 0.35]
        lines = ["o1,o2,o3,performance\n"]
        lines += [",".join(map(str, p)) + f",{rng.randint(0, 3) * 0.5}\n" for p in kept]
        (tmp_path / f"env_{env_id}.csv").write_text("".join(lines), encoding="utf-8")
    legs = ["A", "B", "A"] + ([rng.choice(ids)] if seed % 2 else [])
    manifest = tmp_path / "scenario.txt"
    manifest.write_text(
        f"system: returns\nseed: {seed}\nrepetitions: 2\nk: 15\n"
        "planners: lidos, lidos_sta, pseudo_dynamic, stationary\n"
        + "".join(f"environment: {e} env_{e}.csv minimize\n" for e in ids)
        + "".join(f"leg: {e} {rng.randint(10, 25)}\n" for e in legs),
        encoding="utf-8",
    )
    bundle = run_scenario(parse_scenario(manifest), PlannerParams(population_size=10, k=15))
    for key, trace in bundle.traces.items():
        epochs: list[list] = [[]]
        for event, plan in zip(trace.events, trace.plans):
            if event["env_change"]:
                epochs.append([])
            elif not event["adaptation_sent"]:
                epochs[-1].append(plan)
        assert len(epochs) == len(legs)
        for plans_measured in epochs:
            assert len(plans_measured) == len(set(plans_measured)), key
        assert sum(map(len, epochs)) == bundle.final_counters[key]
        assert set(epochs[2]) & set(epochs[0]), key


def test_public_surface_matches_readme():
    """`lidos.__all__` is the README's "Library use" list, and every name
    imports."""
    import lidos

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", section.split("```", 1)[0])
    assert sorted(listed) == sorted(lidos.__all__)
    for name in lidos.__all__:
        assert getattr(lidos, name) is not None

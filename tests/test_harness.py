from __future__ import annotations

import csv
import gc
import io
import itertools
import math
import os
import random
import re
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lidos import cli, harness, planner
from lidos.cli import main as cli_main
from lidos.harness import (
    TRACE_HEADER,
    EnvironmentSource,
    LegSpec,
    ScenarioSpec,
    bundle_from_traces,
    csv_text,
    load_scenario_tables,
    parse_scenario,
    planner_labels,
    read_traces_csv,
    run_scenario,
    summarize_bundle,
    traces_csv_text,
    trajectories_csv_text,
    trajectory_rows,
    write_atomic,
    write_bundle_outputs,
)
from lidos.baselines import StationaryPlanner
from lidos.harness import ResultBundle
from lidos.planner import TRACE_DTYPE, RunTrace, derive_seed
from lidos.stats import quartiles
from lidos.twin import Environment, synth_landscape, synth_option_names, synth_tables

from conftest import assert_accounting, traces_text


def write_small_dataset(tmp_path: Path, **kwargs) -> Path:
    """Synthesize a small two-environment dataset plus manifest; returns the
    manifest path."""
    defaults = dict(n_options=3, domain_size=4, n_peaks=4, noise_seed=1)
    defaults.update(kwargs)
    table_a, table_b = synth_tables(**defaults)
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

    def test_manifest_integers_keep_pythons_literal_grammar(self, tmp_path):
        """A manifest integer is read by `int`, so an underscore between
        digits is accepted, as in a table cell; only `traces.csv`, which a
        program writes, is held to the writer's characters."""
        manifest = write_small_dataset(tmp_path)
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            "repetitions: 2\n", "repetitions: 0_2\n"), encoding="utf-8")
        assert parse_scenario(manifest).repetitions == 2

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

    def test_dataset_path_keeps_inner_whitespace(self, tmp_path):
        """The path is the text between the id and the direction, or the
        units, stripped only at its ends: `my  data/env_a.csv` used to be
        opened as `my data/env_a.csv`, and a tab became a space."""
        write_small_dataset(tmp_path)
        for name, folder in (("env_a.csv", "my  data"), ("env_b.csv", "tab\tdata")):
            (tmp_path / folder).mkdir()
            (tmp_path / name).rename(tmp_path / folder / name)
        manifest = tmp_path / "spaced.txt"
        manifest.write_text(
            "system: s\nenvironment: A   my  data/env_a.csv  minimize\n"
            "environment: B tab\tdata/env_b.csv maximize msgs/min\nleg: A 30\nleg: B 30\n",
            encoding="utf-8",
        )
        spec = parse_scenario(manifest)
        assert [source.dataset_path for source in spec.environments] == [
            tmp_path / "my  data" / "env_a.csv", tmp_path / "tab\tdata" / "env_b.csv"]
        assert spec.environments[1].environment.units == "msgs/min"
        _, tables = load_scenario_tables(spec)
        assert set(tables) == {"A", "B"}


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
    return run_scenario(spec)


@pytest.fixture(scope="module")
def mixed_bundle(tmp_path_factory):
    """The smoke scenario with environment B maximized: its legs run in
    opposite directions."""
    manifest = write_small_dataset(tmp_path_factory.mktemp("mixed"))
    manifest.write_text(manifest.read_text(encoding="utf-8").replace(
        "env_b.csv minimize", "env_b.csv maximize"), encoding="utf-8")
    spec = parse_scenario(manifest)
    return run_scenario(spec)


class TestRunScenario:
    def test_trace_shape(self, tmp_path, twin_probe):
        spec = parse_scenario(write_small_dataset(tmp_path))
        bundle = run_scenario(spec)
        assert bundle.labels == ("lidos", "stationary")
        assert list(bundle.traces) == [(label, rep) for label in bundle.labels
                                       for rep in range(spec.repetitions)]
        assert len(twin_probe) == len(bundle.traces)
        for trace, twin in zip(bundle.traces.values(), twin_probe):
            assert trace.events["env_change"].sum() == 1
            indices = trace.events["measurement_index"][trace.measurement_mask()].tolist()
            assert indices == sorted(set(indices))
            assert indices[-1] == twin.counter

    def test_deterministic_bytes(self, smoke_bundle, tmp_path):
        manifest = write_small_dataset(tmp_path)
        spec = parse_scenario(manifest)
        again = run_scenario(spec)
        assert traces_text(again) == traces_text(smoke_bundle)

    def test_a_library_run_can_be_summarized(self, tmp_path):
        """`run_scenario` used to take a population size that the traces do
        not record, so `lidos summarize` refused the traces of a library run
        with a population of 40; a run now always has the default."""
        assert cli_main(["synth", "--out", str(tmp_path)]) == 0
        spec = parse_scenario(tmp_path / "scenario.txt", {"repetitions": "3"})
        with pytest.raises(TypeError):
            run_scenario(spec, 40)
        bundle = run_scenario(spec)
        write_bundle_outputs(bundle, tmp_path)
        again = bundle_from_traces(spec, tmp_path / "traces.csv")
        assert traces_text(again) == traces_text(bundle)

    def test_budget_below_population_rejected(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            " 30\n", " 19\n"), encoding="utf-8")
        spec = parse_scenario(manifest)
        with pytest.raises(ValueError, match="below the population size 20"):
            run_scenario(spec)

    @pytest.mark.parametrize("old, new, lineno, message", [
        ("leg: A 30\n", "leg: A 10\n", 9, "leg budget 10 is below the population size 20"),
        ("environment: B env_b.csv", "environment: B env_missing.csv", 8,
         "[Errno 2] No such file or directory"),
    ], ids=["budget-below-population", "missing-dataset"])
    def test_a_replaced_spec_keeps_its_places(self, tmp_path, old, new, lineno, message):
        """A spec copied with `dataclasses.replace` names the manifest line of
        a run-time error, as the parsed spec does; the copy used to name none."""
        manifest = write_small_dataset(tmp_path)
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(old, new),
                            encoding="utf-8")
        copy = replace(parse_scenario(manifest), planners=("lidos",))
        with pytest.raises(ValueError) as exc:
            run_scenario(copy)
        assert str(exc.value).startswith(f"{manifest}:{lineno}: {message}")

    def test_run_and_summarize_read_one_population(self, tmp_path, monkeypatch):
        """`run_scenario`'s leg-budget check and `read_traces_csv`'s bound on
        a leg's rows read `lidos.planner.POPULATION_SIZE` when they run, as
        the planners do, so a run and its read-back agree on one population."""
        manifest = write_small_dataset(tmp_path, n_options=5, domain_size=5, n_peaks=10)
        spec = parse_scenario(manifest)
        default = run_scenario(spec)
        write_bundle_outputs(default, tmp_path / "default")
        monkeypatch.setattr(planner, "POPULATION_SIZE", 10)
        bundle = run_scenario(spec)
        assert traces_text(bundle) != traces_text(default)
        write_bundle_outputs(bundle, tmp_path / "ten")
        again = bundle_from_traces(spec, tmp_path / "ten" / "traces.csv")
        assert traces_text(again) == traces_text(bundle)
        # Populations of 20 take a leg of 30 past 30 + 10 rows.
        with pytest.raises(ValueError, match=r"budget plus one population \(10\)"):
            bundle_from_traces(spec, tmp_path / "default" / "traces.csv")
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            "leg: A 30\n", "leg: A 9\n"), encoding="utf-8")
        with pytest.raises(ValueError, match="leg budget 9 is below the population size 10;"):
            run_scenario(parse_scenario(manifest))

    def test_adaptations_follow_the_manifest_k(self, tmp_path):
        """The adaptation interval is the manifest's `k`: with legs of 40, a
        `k` of 15 sends adaptations and one of 150 sends none."""
        manifest = write_small_dataset(tmp_path, domain_size=5)
        manifest.write_text(manifest.read_text(encoding="utf-8").replace(
            "k: 30\n", "k: 15\n").replace(" 30\n", " 40\n"), encoding="utf-8")

        def adaptations(spec):
            bundle = run_scenario(spec)
            return sum(int(t.events["adaptation_sent"].sum()) for t in bundle.traces.values())

        spec = parse_scenario(manifest)
        assert [leg.measurement_budget for leg in spec.legs] == [40, 40]
        assert adaptations(spec) > 0
        assert adaptations(parse_scenario(manifest, {"k": "150"})) == 0

    @pytest.mark.parametrize("name", ["env_a.csv", "scenario.txt"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, name):
        """A UTF-8 byte-order mark used to become part of the first option
        name of a table, so the table implied a space of its own, or of the
        first key of a manifest, which was then unknown."""
        manifest = write_small_dataset(tmp_path)
        plain = run_scenario(parse_scenario(manifest))
        path = tmp_path / name
        path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        spec = parse_scenario(manifest)
        assert spec.system == "smoke"
        space, _ = load_scenario_tables(spec)
        assert [option.name for option in space.options] == ["o1", "o2", "o3"]
        bundle = run_scenario(spec)
        assert traces_text(bundle) == traces_text(plain)

    def test_dataset_mismatch_rejected(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        # Shrink environment B's dataset so its implied space differs.
        b_path = tmp_path / "env_b.csv"
        lines = b_path.read_text(encoding="utf-8").splitlines()
        b_path.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        spec = parse_scenario(manifest)
        with pytest.raises(ValueError, match="mismatch"):
            run_scenario(spec)

    def test_duplicate_planner_kinds_identical_results(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        spec = parse_scenario(manifest)
        spec = ScenarioSpec(
            system=spec.system,
            environments=spec.environments,
            legs=spec.legs,
            planners=("lidos", "lidos"),
            repetitions=2,
            base_seed=spec.base_seed,
            trajectory_stride=spec.trajectory_stride,
        )
        bundle = run_scenario(spec)
        assert bundle.final_values("lidos") == bundle.final_values("lidos@2")
        summary = summarize_bundle(bundle)
        ranks = {e.label: e.rank for e in summary.ranks}
        assert ranks["lidos"] == ranks["lidos@2"]
        assert summary.pairwise[0].p_value == 1.0


class TestParallelRun:
    """More than one worker forks; one worker never does. A failure in a
    worker ends `lidos run` as cleanly as a failure in the serial loop."""

    def test_one_worker_creates_no_pool(self, tmp_path, monkeypatch):
        spec = parse_scenario(write_small_dataset(tmp_path))

        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert len(run_scenario(spec, workers=1).traces) == 4
        with pytest.raises(AssertionError, match="a worker was forked"):
            run_scenario(spec, workers=2)

    def test_the_heap_is_frozen_only_across_the_forks(self, tmp_path, monkeypatch):
        """Workers inherit a frozen heap, so their collectors never walk, and
        so never copy, what they inherit. The parent unfreezes it once the
        workers are forked, unless its caller had frozen it."""
        spec = parse_scenario(write_small_dataset(tmp_path))
        fork, counts = os.fork, []

        def counting_fork():
            counts.append(gc.get_freeze_count())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        assert gc.get_freeze_count() == 0
        run_scenario(spec, workers=2)
        assert len(counts) == 2 and min(counts) > 0
        assert gc.get_freeze_count() == 0
        gc.freeze()
        try:
            run_scenario(spec, workers=2)
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_the_forking_process_builds_no_lookup(self, tmp_path, monkeypatch):
        """The forking process loads no table, so it builds no plan -> value
        dict either: each worker loads its own tables, and loading and
        checking a table needs only its columns. The dict is built by the
        process that measures. A repeated row that agrees is one plan."""
        manifest = write_small_dataset(tmp_path)
        path = tmp_path / "env_b.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + lines[1:4]), encoding="utf-8")
        spec = parse_scenario(manifest)
        parent, forking, loaded = os.getpid(), True, []

        def load(spec):
            assert not forking or os.getpid() != parent, "the forking process loaded a table"
            space, tables = load_scenario_tables(spec)
            assert all("rows" not in vars(table) for table in tables.values())
            assert [len(table) for table in tables.values()] == [64, 64]
            loaded.append(tables)
            return space, tables

        monkeypatch.setattr(harness, "load_scenario_tables", load)
        forked = run_scenario(spec, workers=2)
        forking = False
        serial = run_scenario(spec, workers=1)
        assert len(loaded) == 1
        assert all("rows" in vars(table) for table in loaded[0].values())
        assert traces_text(forked) == traces_text(serial)

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

    @pytest.mark.parametrize("old, new, message", [
        ("environment: B env_b.csv", "environment: B env_missing.csv",
         "{manifest}:8: [Errno 2] No such file or directory: '{dir}/env_missing.csv'"),
        ("environment: B env_b.csv", "environment: B env_small.csv",
         "{manifest}:8: dataset mismatch across environments: 'B' implies a different "
         "config space: option 'o1' takes 2, 3 only in 'A'"),
        ("environment: B env_b.csv", "environment: B env_bad.csv",
         "{dir}/env_bad.csv:3: option value 'x' is not a number"),
    ], ids=["missing-dataset", "dataset-mismatch", "malformed-cell"])
    def test_a_table_fault_reads_as_in_the_serial_loop(self, tmp_path, capsys, old, new,
                                                       message):
        """A table that fails to load or check ends a forked run with the
        serial loop's message, and leaves no worker behind."""
        manifest = write_small_dataset(tmp_path)
        lines = (tmp_path / "env_b.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "env_small.csv").write_text("".join(lines[: len(lines) // 2]),
                                                encoding="utf-8")
        (tmp_path / "env_bad.csv").write_text(
            "".join([lines[0], lines[1], "x" + lines[2][1:], *lines[3:]]), encoding="utf-8")
        text = manifest.read_text(encoding="utf-8")
        assert old in text
        manifest.write_text(text.replace(old, new), encoding="utf-8")
        errors = []
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)],
                            workers=workers) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert errors == [f"error: {message.format(manifest=manifest, dir=tmp_path)}\n"] * 2

    def test_earliest_failure_in_task_order_is_reported(self, tmp_path, capsys, monkeypatch):
        """Tasks run in (planner, repetition) order, and worker `w` of n runs
        tasks w, w + n, ...; `lidos` repetition 1 is task 1 and `stationary`
        repetition 0 task 2. Both fail, on different workers where there are
        several, and the serial loop's message is the one reported."""
        manifest = write_small_dataset(tmp_path)
        failing = {derive_seed(11, "lidos", 1): "lidos repetition 1",
                   derive_seed(11, "stationary", 0): "stationary repetition 0"}
        begin = planner.BasePlanner._begin_epoch

        def failing_begin(self, env):
            if self.base_seed in failing:
                raise ValueError(f"{failing[self.base_seed]} cannot change environment")
            begin(self, env)

        monkeypatch.setattr(planner.BasePlanner, "_begin_epoch", failing_begin)
        errors = []
        for workers in (1, 2, 3, 4):
            out = tmp_path / f"out{workers}"
            assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)],
                            workers=workers) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors == ["error: lidos repetition 1 cannot change environment\n"] * 4

    def test_dead_worker_ends_the_run_without_waiting_for_its_sibling(
            self, tmp_path, capsys, monkeypatch):
        """Worker 0 dies in its first task while worker 1 would take a minute
        over its own: the run ends at once, with every worker reaped."""
        manifest = write_small_dataset(tmp_path)
        parent = os.getpid()
        dying = derive_seed(11, "lidos", 0)
        begin = planner.BasePlanner._begin_epoch

        def slow_begin(self, env):
            if os.getpid() != parent:
                if self.base_seed == dying:
                    os._exit(1)
                time.sleep(60)
            begin(self, env)

        monkeypatch.setattr(planner.BasePlanner, "_begin_epoch", slow_begin)
        started = time.monotonic()
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "out")],
                        workers=2) == 2
        assert time.monotonic() - started < 30
        assert capsys.readouterr().err == (
            "error: a worker process ended abruptly before returning its repetition\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_ends_the_run_while_an_earlier_sibling_works(
            self, tmp_path, capsys, monkeypatch):
        """Worker 1 dies in its first task, task 1, while worker 0 would take
        a minute over each of its own: the run ends at once, with every worker
        reaped. The workers' pipes used to be read in fork order, so a dead
        worker was noticed only once every earlier worker had finished."""
        manifest = write_small_dataset(tmp_path)
        parent = os.getpid()
        dying = derive_seed(11, "lidos", 1)
        begin = planner.BasePlanner._begin_epoch

        def slow_begin(self, env):
            if os.getpid() != parent:
                if self.base_seed == dying:
                    os._exit(1)
                time.sleep(60)
            begin(self, env)

        monkeypatch.setattr(planner.BasePlanner, "_begin_epoch", slow_begin)
        started = time.monotonic()
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "out")],
                        workers=2) == 2
        assert time.monotonic() - started < 30
        assert capsys.readouterr().err == (
            "error: a worker process ended abruptly before returning its repetition\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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


def post_change_bundle(spec, posts) -> ResultBundle:
    """A bundle of lidos against stationary, one repetition per (baseline,
    lidos) pair of post-change values in `posts`; each trace holds one
    measurement in leg A, the change, and its post-change values in leg B."""
    def trace(post):
        trace = RunTrace()
        trace.record(1, "A", 5.0, 5.0)
        trace.record(1, "B", env_change=True)
        for i, ft in enumerate(post, 2):
            trace.record(i, "B", ft, min(post[:i - 1]))
        return trace

    traces = {}
    for rep, (base, lidos) in enumerate(posts):
        traces[("lidos", rep)], traces[("stationary", rep)] = trace(lidos), trace(base)
    return ResultBundle(spec=replace(spec, repetitions=len(posts)),
                        labels=("lidos", "stationary"), traces=traces)


class TestSummaries:
    def test_reproducible_from_traces_alone(self, smoke_bundle, tmp_path):
        path = tmp_path / "traces.csv"
        write_atomic(path, traces_text(smoke_bundle))
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
            trace.record(1, "A", pre_best, pre_best)
            trace.record(1, "B", env_change=True)
            trace.record(2, "B", post_best, post_best)
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

    def test_a_lost_repetition_is_no_win(self, smoke_bundle, tmp_path):
        """In both repetitions lidos never reaches the baseline's post-change
        best, so neither the summary nor summary.txt may report a speedup
        above 1."""
        bundle = post_change_bundle(smoke_bundle.spec, [([1.0], [9.0])] * 2)
        (row,) = write_bundle_outputs(bundle, tmp_path).speedups
        assert row.median is None or row.median <= 1
        text = (tmp_path / "summary.txt").read_text(encoding="utf-8")
        ratios = re.findall(r"(\S+)x\b", text.split("post-change speedup")[1])
        assert all(float(ratio) <= 1 for ratio in ratios)
        assert "  vs stationary       no ratio (missed 2 of 2)\n" in text

    def test_speedup_median_leaves_misses_out(self, smoke_bundle, tmp_path):
        # The baseline first reaches its best, 1.0, at its second measurement;
        # lidos matches it at its first (2.0), at its fourth (0.5), or never.
        bundle = post_change_bundle(smoke_bundle.spec, [
            ([3.0, 1.0], [1.0]), ([3.0, 1.0], [9.0]),
            ([3.0, 1.0], [2.0, 2.0, 2.0, 1.0]), ([3.0, 1.0], [1.5, 1.2])])
        (row,) = write_bundle_outputs(bundle, tmp_path).speedups
        assert row.values == (2.0, math.inf, 0.5, math.inf)
        assert (row.median, row.misses) == (1.25, 2)
        assert "  vs stationary       1.25x (missed 2 of 4)\n" in (
            tmp_path / "summary.txt").read_text(encoding="utf-8")
        assert "stationary,1,inf\n" in (tmp_path / "speedups.csv").read_text(encoding="utf-8")

    def test_speedup_median_is_the_quartiles_median(self, smoke_bundle):
        """The speedup median follows the rule of every other median. For
        17/86 and 151/130 numpy's midpoint lies one unit in the last place
        above that of `statistics.median`, which the speedup median used to
        take."""
        bundle = post_change_bundle(smoke_bundle.spec, [
            ([3.0] * 16 + [1.0], [2.0] * 85 + [1.0]), ([1.0], [9.0]),
            ([3.0] * 150 + [1.0], [2.0] * 129 + [1.0])])
        (row,) = summarize_bundle(bundle).speedups
        matched = [value for value in row.values if value != math.inf]
        assert matched == [17 / 86, 151 / 130]
        assert row.median == quartiles(matched)[1] == 0.6796064400715565
        assert row.misses == 1

    def test_traces_override_manifest_repetitions(self, smoke_bundle, tmp_path):
        path = tmp_path / "traces.csv"
        write_atomic(path, traces_text(smoke_bundle))
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
        write_atomic(good, traces_text(smoke_bundle))
        write_atomic(bad, "planner\n")
        spec = smoke_bundle.spec
        assert gc.isenabled()
        read_traces_csv(good, spec)
        assert gc.isenabled()
        with pytest.raises(ValueError, match="unexpected trace header"):
            read_traces_csv(bad, spec)
        assert gc.isenabled()
        gc.disable()
        try:
            read_traces_csv(good, spec)
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

    def test_trajectories_csv_text_table(self, smoke_bundle):
        lines = trajectories_csv_text(
            replace(smoke_bundle, spec=replace(smoke_bundle.spec, trajectory_stride=15))
        ).splitlines()
        assert lines[0] == ",".join(
            ("planner", "measurement_index", "median_best", "iqr_best", "env_change")
        )
        # 60 nominal measurements at stride 15 -> 4 rows per planner.
        assert len(lines) == 1 + 4 * len(smoke_bundle.labels)

    def test_trajectory_median_monotone_within_epoch(self, smoke_bundle, mixed_bundle):
        """Each epoch's median improves in its own environment's units: it
        falls while A is minimized and, in the mixed scenario, rises once B
        is maximized. Every leg used to be reported in the last leg's units."""
        for bundle in (smoke_bundle, mixed_bundle):
            rows = [r for r in trajectory_rows(
                replace(bundle, spec=replace(bundle.spec, trajectory_stride=5)))
                if r[0] == "lidos"]
            first_epoch = [r[2] for r in rows if r[1] <= 30]
            # Legs stop at generation granularity, so the actual change lands
            # within one generation past the nominal boundary; start the
            # second-epoch check safely beyond that.
            second_epoch = [r[2] for r in rows if r[1] >= 45]
            for values, env_id in ((first_epoch, "A"), (second_epoch, "B")):
                minimized = bundle.spec.environment_of(env_id).direction == "minimize"
                assert values == sorted(values, reverse=minimized), (env_id, values)

    def test_rank_entries_sorted_by_rank_then_canonical_median(self, mixed_bundle):
        """Within a rank, the better canonical median comes first: under a
        maximized final environment, the higher median in its units."""
        summary = summarize_bundle(mixed_bundle)
        canonical = {label: float(np.percentile(mixed_bundle.final_values(label), 50))
                     for label in mixed_bundle.labels}
        keys = [(e.rank, canonical[e.label], e.iqr) for e in summary.ranks]
        assert keys == sorted(keys)
        assert sorted(e.label for e in summary.ranks) == sorted(mixed_bundle.labels)
        for e in summary.ranks:
            assert e.median == summary.summaries[e.label].median
            assert e.median == pytest.approx(-canonical[e.label], abs=1e-12)


# Damages to the cells of one measurement row of traces.csv, each with the
# error it must cause at that row's line.
ROW_DAMAGES = [
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
]
ROW_DAMAGE_IDS = ["short-row", "bad-rep", "bad-ft", "flag-2", "flag-word", "both-flags",
                  "empty-ft", "nan-best-ft", "valued-change"]


CODE_SOURCES = tuple(EnvironmentSource(Environment(env_id, "minimize"), Path(f"{env_id}.csv"))
                     for env_id in "AB")


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

    def test_summarize_stride_rewrites_trajectories_only(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "trajectories.csv").unlink()
        assert cli_main(["summarize", "--scenario", str(manifest),
                         "--out", str(out), "--stride", "5"]) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        rows = after.pop("trajectories.csv").decode("utf-8").splitlines()
        assert rows[0] == "planner,measurement_index,median_best,iqr_best,env_change"
        # 60 nominal measurements at stride 5, where the run's stride 10 gave 6.
        assert len(rows) == 1 + 12 * 2
        assert after == {name: content for name, content in before.items()
                         if name != "trajectories.csv"}

    @pytest.mark.parametrize("argv", [
        ["trajectories"],
        ["summarize", "--k", "5"],
        ["summarize", "--repetitions", "1"],
        ["summarize", "--planners", "lidos"],
    ], ids=["trajectories-verb", "summarize-k", "summarize-repetitions", "summarize-planners"])
    def test_retired_verb_and_flags_exit_2(self, capsys, argv):
        """`summarize --stride` does what `lidos trajectories` did, and the
        flags `summarize` ignored are refused rather than accepted."""
        with pytest.raises(SystemExit) as exc:
            cli_main([argv[0], "--scenario", "scenario.txt", "--out", "out", *argv[1:]])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, flag", [
        (["--options", "0"], "--options"),
        (["--options", "-1"], "--options"),
        (["--domain-size", "1"], "--domain-size"),
        (["--options", "4", "--domain-size", "33", "--peaks", "2"], "--domain-size 33"),
        (["--options", "4", "--domain-size", "32", "--peaks", "17"], "--peaks 17"),
        (["--peaks", "1"], "--peaks must be at least 2, got 1"),
        (["--peaks", "0"], "--peaks must be at least 2, got 0"),
        (["--peaks", "-3"], "--peaks must be at least 2, got -3"),
        (["--options", "2", "--domain-size", "2", "--peaks", "5"], "--peaks 5"),
        (["--peak-shift", "40"], "--peak-shift 40"),
        (["--peak-shift", "0"], "--peak-shift 0"),
    ], ids=["no-options", "negative-options", "one-value", "over-the-plan-limit",
            "over-the-distance-limit", "one-peak", "no-peaks", "negative-peaks",
            "more-peaks-than-plans", "shift-of-all-peaks", "no-shift"])
    def test_synth_refuses_bad_shapes_by_flag(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "synth"
        assert cli_main(["synth", "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and flag in err
        assert not out.exists()

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
        ("stride: 10\n", "stride: 0\n", "scenario.txt:5: stride must be positive"),
        ("environment: A env_a.csv minimize\nenvironment: B env_b.csv minimize\n", "",
         "scenario.txt: scenario declares no environments"),
        ("leg: B 30\n", "", "scenario.txt: a transition scenario needs at least two legs"),
    ], ids=["unknown-planner", "undeclared-environment", "zero-repetitions", "zero-k",
            "zero-leg-budget", "duplicate-environment", "empty-planners", "zero-stride",
            "no-environments", "one-leg"])
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
        (["--repetitions", "0"], "error: --repetitions: repetitions must be positive"),
        (["--stride", "0"], "error: --stride: stride must be positive"),
        (["--planners", ","], "error: --planners: scenario lists no planners"),
    ], ids=["zero-k", "word-k", "unknown-planner", "zero-repetitions", "zero-stride",
            "empty-planners"])
    def test_flag_value_error_names_its_flag(self, tmp_path, capsys, flags, message):
        manifest = write_small_dataset(tmp_path)
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o"),
                         *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, lineno, message", [
        ("leg: A 30\n", "leg: A 10\n", 9,
         "leg budget 10 is below the population size 20; "
         "initialization alone would exceed it"),
        ("environment: B env_b.csv", "environment: B env_small.csv", 8,
         "dataset mismatch across environments: 'B' implies a different config space: "
         "option 'o1' takes 2, 3 only in 'A'"),
        ("environment: B env_b.csv", "environment: B env_renamed.csv", 8,
         "dataset mismatch across environments: 'B' implies a different config space: "
         "option 2 is 'x' in 'B' but 'o2' in 'A'"),
        ("environment: B env_b.csv", "environment: B env_missing.csv", 8,
         "[Errno 2] No such file or directory: '{dir}/env_missing.csv'"),
    ], ids=["budget-below-population", "dataset-mismatch", "option-name-mismatch",
            "missing-dataset"])
    def test_run_time_scenario_error_names_its_line(self, tmp_path, capsys, old, new,
                                                    lineno, message):
        """Errors found once the datasets load or the population size is
        known used to name no manifest line."""
        manifest = write_small_dataset(tmp_path)
        small = (tmp_path / "env_b.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "env_small.csv").write_text("".join(small[: len(small) // 2]),
                                                encoding="utf-8")
        (tmp_path / "env_renamed.csv").write_text("".join(["o1,x,o3,performance\n", *small[1:]]),
                                                  encoding="utf-8")
        text = manifest.read_text(encoding="utf-8")
        assert old in text
        manifest.write_text(text.replace(old, new), encoding="utf-8")
        code = cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}:{lineno}: {message.format(dir=tmp_path)}\n")

    @pytest.mark.parametrize("change, message", [
        (dict(planners=("lidos", "nope")), "unknown planner kind 'nope'"),
        (dict(legs=(LegSpec("A", 30), LegSpec("C", 150))),
         "leg references undeclared environment 'C'"),
        (dict(repetitions=0), "repetitions must be positive"),
        (dict(k=0), "k must be positive"),
        (dict(trajectory_stride=0), "stride must be positive"),
        (dict(legs=(LegSpec("A", 30), LegSpec("B", 0))), "leg budgets must be positive"),
        (dict(environments=(CODE_SOURCES[0],) * 2), "duplicate environment id 'A'"),
        (dict(planners=()), "scenario lists no planners"),
        (dict(environments=()), "scenario declares no environments"),
        (dict(legs=(LegSpec("A", 30),)), "a transition scenario needs at least two legs"),
        (dict(legs=(LegSpec("A", 30), LegSpec("B", 2**20)), trajectory_stride=1),
         "legs of 1,048,606 measurements make 1,048,606 stride marks at stride 1, more than "
         "the 1,048,576 a scenario may have"),
    ], ids=["unknown-planner", "undeclared-environment", "zero-repetitions", "zero-k",
            "zero-stride", "zero-leg-budget", "duplicate-environment", "empty-planners",
            "no-environments", "one-leg", "past-the-stride-marks"])
    def test_value_error_of_a_spec_built_in_code_names_no_place(self, change, message):
        """The refusals that name a manifest line or a flag above give their
        bare message for a spec built in code, which has no places."""
        fields = dict(system="s", environments=CODE_SOURCES,
                      legs=(LegSpec("A", 30), LegSpec("B", 30)))
        with pytest.raises(ValueError) as exc:
            ScenarioSpec(**{**fields, **change})
        assert str(exc.value) == message

    def test_flag_replaces_a_bad_manifest_value_before_it_is_checked(self, tmp_path):
        manifest = write_small_dataset(tmp_path)
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("repetitions: 2\n", "repetitions: 0\n"),
                            encoding="utf-8")
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(tmp_path / "o"),
                         "--repetitions", "1"]) == 0

    @pytest.mark.parametrize("under", [(), ("sub",), ("sub", "deeper")],
                             ids=["the-file", "under-the-file", "two-under-the-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_the_run(
            self, tmp_path, capsys, monkeypatch, under):
        """An `--out` that is a file, or a path under one, used to run every
        repetition and then fail to make the directory."""
        manifest = write_small_dataset(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))

        def no_run(spec, *, workers=1):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_scenario", no_run)
        out = taken.joinpath(*under)
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out: {taken} is not a directory\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("budget", ["9223372036854775000", "99999999999999999999"],
                             ids=["within-int64", "past-int64"])
    def test_leg_budget_past_the_stride_marks_exits_2_before_the_run(
            self, tmp_path, capsys, budget):
        """A trajectory holds an entry per stride mark, so such a budget used to
        run every repetition, write `traces.csv` and then fail in numpy: a
        MemoryError traceback, or numpy's "array is too big". `lidos
        summarize` did the same on the traces of a run that fitted."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("leg: B 30\n", f"leg: B {budget}\n"),
                            encoding="utf-8")
        capsys.readouterr()
        total = 30 + int(budget)
        message = (f"error: {manifest}:10: legs of {total:,} measurements make "
                   f"{total // 10:,} stride marks at stride 10, more than the 1,048,576 a "
                   "scenario may have\n")
        fresh = tmp_path / "fresh"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(fresh)]) == 2
        assert capsys.readouterr().err == message
        assert not fresh.exists()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_stride_flag_past_the_stride_marks_names_the_flag(self, tmp_path):
        """Legs that fit at the manifest's stride, past the cap at the flag's."""
        manifest = write_small_dataset(tmp_path)
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("leg: B 30\n", f"leg: B {2**20}\n"),
                            encoding="utf-8")
        assert parse_scenario(manifest).trajectory_stride == 10
        with pytest.raises(ValueError) as exc:
            parse_scenario(manifest, {"stride": "1"})
        assert str(exc.value) == ("--stride: legs of 1,048,606 measurements make 1,048,606 "
                                  "stride marks at stride 1, more than the 1,048,576 a "
                                  "scenario may have")

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
    @pytest.mark.parametrize("damage, message", ROW_DAMAGES, ids=ROW_DAMAGE_IDS)
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

    # Line 5 is a measurement row of the first leg: lidos repetition 0, with
    # measurement_index 4 and a negative ft and best_ft. Each cell keeps its
    # value under Python's int() or float(), but holds a character that no
    # trace writer writes.
    @pytest.mark.parametrize("column, cell", [
        (1, "-0"), (1, "+0"), (1, " 0"), (1, "0_0"), (1, "\u0660"),
        (2, "0_4"), (2, "+4"), (2, "4 "),
        (4, "-0_{}"), (4, " -{}"), (5, "-0_{}"), (5, "-{} "),
    ], ids=["rep-minus", "rep-plus", "rep-space", "rep-underscore", "rep-arabic-zero",
            "index-underscore", "index-plus", "index-space",
            "ft-underscore", "ft-space", "best-ft-underscore", "best-ft-space"])
    def test_number_cells_hold_only_the_writers_characters(self, tmp_path, capsys,
                                                          column, cell):
        """`lidos summarize` used to accept these cells, since `int` and
        `float` read them as the numbers the run wrote."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[4].rstrip("\n").split(",")
        assert cells[:3] == ["lidos", "0", "4"] and cells[4].startswith("-")
        old = cells[column]
        cells[column] = cell.format(old[1:])
        assert float(cells[column]) == float(old)
        lines[4] = ",".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        name = TRACE_HEADER[column]
        assert capsys.readouterr().err == (
            f"error: {path}:5: {name} holds a character no trace writer writes: "
            f"{cells[column]!r}\n")

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

    def test_maximize_direction_reported_in_original_units(self, tmp_path, twin_probe):
        write_small_dataset(tmp_path)
        manifest = tmp_path / "max.txt"
        manifest.write_text(
            "system: s\nseed: 3\nrepetitions: 2\nplanners: lidos\n"
            "environment: A env_a.csv maximize\nenvironment: B env_b.csv maximize\n"
            "leg: A 30\nleg: B 30\n",
            encoding="utf-8",
        )
        spec = parse_scenario(manifest)
        bundle = run_scenario(spec)
        write_bundle_outputs(bundle, tmp_path / "out")
        # The best raw value of B's table among the plans each repetition's
        # twin measured in the last leg.
        _, tables = load_scenario_tables(spec)
        assert len(twin_probe) == spec.repetitions
        best = []
        for epochs in twin_probe.values():
            assert epochs[-1].env_id == "B"
            best.append(max(tables["B"].rows[plan] for plan in epochs[-1].raised))
        with (tmp_path / "out" / "summary.csv").open(encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert row["direction"] == "maximize"
        assert float(row["median"]) == float(np.percentile(best, 50))
        assert float(row["iqr"]) == float(np.percentile(best, 75) - np.percentile(best, 25))

    def test_undeclared_environment_in_traces_exits_2(self, tmp_path, capsys):
        """Each trace value's sign comes from its environment, so a trace
        naming an environment the manifest lacks is refused; it used to be
        summarized in the final environment's units."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rows = [re.sub(r"^([^,]*,[^,]*,[^,]*),B,", r"\1,C,", row) for row in rows]
        path.write_text(header + "".join(rows), encoding="utf-8")
        capsys.readouterr()
        for flags in ([], ["--stride", "5"]):
            assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out),
                             *flags]) == 2
            assert capsys.readouterr().err == (
                f"error: {path}: environment 'C' is not declared in the scenario\n")

    @pytest.mark.parametrize("label", ["foo", "lidos@1", "lidos@02", "lidos@x", "lidos@",
                                       "stationary@2@2", "Lidos", ""])
    def test_unknown_planner_label_in_traces_exits_2(self, tmp_path, capsys, label):
        """A trace label that no planner list gives is refused at its first
        row; `foo` rows used to be summarized like any planner's."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(i for i, row in enumerate(rows, 2) if row.startswith("stationary,"))
        rows = [re.sub(r"^stationary,", f"{label},", row) for row in rows]
        path.write_text(header + "".join(rows), encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{first}: unknown planner label {label!r}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("planners", ["lidos,lidos,stationary,lidos", "stationary",
                                          "pseudo_dynamic,lidos_sta"])
    def test_every_label_a_planner_list_gives_summarizes(self, tmp_path, planners):
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out),
                         "--planners", planners, "--repetitions", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("run_legs, summarize_legs, message", [
        # A minimized then B maximized, summarized as B then A: it used to exit
        # 0 with every summary.csv value negated and labelled `minimize`.
        ("AB", "BA", "2: environment 'A' in leg 1, where the scenario runs 'B'"),
        ("AB", "ABA", "{last}: trace of 'lidos' repetition 0 ends in leg 2 of the scenario's 3"),
        ("ABA", "AB", "{last}: trace of 'lidos' repetition 0 ends in leg 3 of the scenario's 2"),
    ], ids=["swapped", "too-few-changes", "too-many-changes"])
    def test_traces_must_follow_the_legs(self, tmp_path, capsys, run_legs, summarize_legs,
                                         message):
        """Each row's environment is that of its leg, the leg being the count
        of change rows up to it, and each trace has one change per leg after
        the first."""
        manifest = write_small_dataset(tmp_path)
        text = manifest.read_text(encoding="utf-8").replace(
            "env_b.csv minimize", "env_b.csv maximize").replace("leg: A 30\nleg: B 30\n", "")

        def with_legs(legs):
            manifest.write_text(text + "".join(f"leg: {env_id} 30\n" for env_id in legs),
                                encoding="utf-8")

        out = tmp_path / "out"
        with_legs(run_legs)
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rows = (out / "traces.csv").read_text(encoding="utf-8").splitlines()
        first = [line for line, row in enumerate(rows, 1) if row.startswith("lidos,0,")]
        with_legs(summarize_legs)
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        expected = message.format(last=first[-1])
        assert capsys.readouterr().err == f"error: {out / 'traces.csv'}:{expected}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_leg_holds_less_than_its_budget_plus_one_population(self, tmp_path, capsys):
        """A leg stops once its budget is spent, after the generation in
        progress, so it holds fewer measurement rows than its budget plus one
        population. A 150/150 run summarized with `leg: A 60` used to exit 0
        and move the change flag of trajectories.csv to mark 60."""
        manifest = write_small_dataset(tmp_path, n_options=4, domain_size=5, n_peaks=5)
        text = manifest.read_text(encoding="utf-8").replace("leg: B 30\n", "leg: B 150\n")
        manifest.write_text(text.replace("leg: A 30\n", "leg: A 150\n"), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rows = (out / "traces.csv").read_text(encoding="utf-8").splitlines()
        # lidos repetition 0 comes first; its 80th measurement row is the
        # first to reach 60 + 20.
        (line,) = [line for line, row in enumerate(rows, 1)
                   if row.startswith("lidos,0,80,") and row.endswith(",0,0")]
        manifest.write_text(text.replace("leg: A 30\n", "leg: A 60\n"), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'traces.csv'}:{line}: leg 1 reaches 80 measurement rows, but a "
            "leg with a budget of 60 stops before its budget plus one population (20)\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("planners, legs, empty, label", [
        # B maximized: the summary used to give leg A's minimize best with
        # B's sign, the wrong-units summary the leg checks rule out.
        ("stationary", "AB", 2, "stationary"),
        # It used to exit 2 with `empty post-change segment` and no line.
        ("lidos,stationary", "AB", 2, "lidos"),
        ("stationary", "AB", 1, "stationary"),
        ("stationary", "ABA", 2, "stationary"),
    ], ids=["last-leg", "last-leg-with-lidos", "first-leg", "middle-leg"])
    def test_every_leg_holds_a_measurement_row(self, tmp_path, capsys, planners, legs, empty,
                                               label):
        """A planner measures in every leg, a fresh population or the kept
        one re-measured, so a leg without a measurement row is refused at the
        row where it ends: the change row that opens the next leg, or the
        trace's last row."""
        manifest = write_small_dataset(tmp_path)
        text = manifest.read_text(encoding="utf-8").replace(
            "env_b.csv minimize", "env_b.csv maximize").replace("leg: A 30\nleg: B 30\n", "")
        manifest.write_text(text + "".join(f"leg: {env_id} 30\n" for env_id in legs),
                            encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out),
                         "--planners", planners, "--repetitions", "1"]) == 0
        path = out / "traces.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = _without_leg(rows, empty)
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # With its rows gone, the last leg ends at the change row that opens it.
        changes = [line for line, row in enumerate(rows, 2)
                   if row.startswith(f"{label},0,") and row.endswith(",0,1")]
        line = changes[min(empty, len(legs) - 1) - 1]
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: leg {empty} of {label!r} repetition 0 "
            "holds no measurement row\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # The last row of `lidos` repetition 0 is an adaptation row, and the row
    # before it a measurement row of the same leg.
    @pytest.mark.parametrize("row, cell, value, message", [
        (-1, 5, "-5.0", "an adaptation row's ft and best_ft must be the least ft of its leg "
                        "so far, {best}; got {best} and -5.0"),
        (-1, 4, "-5.0", "an adaptation row's ft and best_ft must be the least ft of its leg "
                        "so far, {best}; got -5.0 and {best}"),
        (-2, 5, "1000000000.0",
         "best_ft must be the least ft of its leg so far, {best}; got 1000000000.0"),
        (-2, 4, "-5.0", "best_ft must be the least ft of its leg so far, -5.0; got {best}"),
    ], ids=["adaptation-best-ft", "adaptation-ft", "measurement-best-ft", "measurement-ft"])
    def test_best_ft_must_be_the_least_ft_of_its_leg(self, tmp_path, capsys, row, cell, value,
                                                     message):
        """A planner records on each measurement row the least ft of its leg
        so far, and sends that best on an adaptation row as both its ft and
        best_ft. A `best_ft` of -5.0 on the last row, which no row's ft
        holds, used to be summarized: `lidos` got that median, and every
        pairwise row moved."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = [i for i, line in enumerate(lines) if line.startswith("lidos,0,")][row]
        cells = lines[at].rstrip("\n").split(",")
        assert cells[6:] == (["1", "0"] if row == -1 else ["0", "0"])
        best = cells[5]
        cells[cell] = value
        lines[at] = ",".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{at + 1}: {message.format(best=best)}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("damage, message", [
        # Two measurement rows of `lidos` repetition 0 trade their indices.
        (lambda rows, change: _swap_indices(rows, 4, 5),
         "traces.csv:5: measurement_index must count the trace's measurement rows: "
         "expected 4, got 5"),
        # The change row carries the next measurement's index.
        (lambda rows, change: _shift_index(rows, change),
         "traces.csv:{line}: measurement_index must count the trace's measurement rows"),
    ], ids=["swapped-measurements", "change-row-ahead"])
    def test_measurement_index_must_count_the_measurements(self, tmp_path, capsys, damage,
                                                           message):
        """Within each (planner, rep), measurement rows are numbered 1, 2, 3,
        ... and marker rows carry the latest number: the trajectories and the
        speedups rely on it."""
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        path = out / "traces.csv"
        rows = path.read_text(encoding="utf-8").splitlines()
        change = next(i for i, row in enumerate(rows) if row.startswith("lidos,0,")
                      and row.endswith(",0,1"))
        damage(rows, change)
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message.format(line=change + 1) in err


class TestPatchPoints:
    """Names a caller may replace in a module to watch a command, as the
    benchmark's traced run does: each is the module's own attribute, and the
    command looks it up there when it calls it."""

    @staticmethod
    def watched(monkeypatch, module, name):
        assert name in vars(module), f"{module.__name__}.{name} is not its own attribute"
        calls, original = [], vars(module)[name]

        def watching(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, watching)
        return calls

    def test_run_calls_the_cli_run_scenario(self, tmp_path, monkeypatch):
        manifest = write_small_dataset(tmp_path)
        calls = self.watched(monkeypatch, cli, "run_scenario")
        assert cli_main(["run", "--scenario", str(manifest), "--out",
                         str(tmp_path / "out")]) == 0
        assert len(calls) == 1 and calls[0][0].system == "smoke"

    def test_synth_calls_the_cli_landscape_and_writer(self, tmp_path, monkeypatch):
        landscapes = self.watched(monkeypatch, cli, "synth_landscape")
        writes = self.watched(monkeypatch, cli, "write_atomic")
        assert cli_main(["synth", "--out", str(tmp_path), "--options", "3",
                         "--domain-size", "4", "--peaks", "4"]) == 0
        assert len(landscapes) == 1
        assert [Path(args[0]).name for args in writes] == ["scenario.txt"]

    def test_bundle_outputs_call_the_harness_writer(self, smoke_bundle, tmp_path, monkeypatch):
        writes = self.watched(monkeypatch, harness, "write_atomic")
        write_bundle_outputs(smoke_bundle, tmp_path)
        assert sorted(Path(args[0]).name for args in writes) == [
            "pairwise.csv", "ranks.csv", "speedups.csv", "summary.csv", "summary.txt",
            "trajectories.csv"]


def _swap_indices(rows: list[str], i: int, j: int) -> None:
    """Trade the measurement_index cells of trace rows i and j."""
    a, b = rows[i].split(","), rows[j].split(",")
    a[2], b[2] = b[2], a[2]
    rows[i], rows[j] = ",".join(a), ",".join(b)


def _shift_index(rows: list[str], i: int) -> None:
    """Add one to the measurement_index cell of trace row i."""
    cells = rows[i].split(",")
    cells[2] = str(int(cells[2]) + 1)
    rows[i] = ",".join(cells)


def _without_leg(rows: list[str], leg: int) -> list[str]:
    """Trace rows without the measurement and adaptation rows of each
    trace's leg `leg` (from 1), each measurement_index recounted."""
    kept, legs, counts = [], {}, {}
    for row in rows:
        cells = row.split(",")
        key = tuple(cells[:2])
        legs[key] = legs.get(key, 1) + (cells[-1] == "1")
        if legs[key] == leg and cells[-1] == "0":
            continue
        counts[key] = counts.get(key, 0) + (cells[-2:] == ["0", "0"])
        cells[2] = str(counts[key])
        kept.append(",".join(cells))
    return kept


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


def long_bundle(smoke_bundle) -> ResultBundle:
    """The smoke scenario's planners over 100 repetitions of 250 made-up
    rows, the middle one the change from A to B, under legs whose budgets
    admit them: about 3 MB of traces.csv, in chunks of about 15 KB."""
    rng = np.random.default_rng(3)
    spec = replace(smoke_bundle.spec, repetitions=100, legs=tuple(
        replace(leg, measurement_budget=250) for leg in smoke_bundle.spec.legs))
    traces = {}
    for label in smoke_bundle.labels:
        for rep in range(spec.repetitions):
            events = np.zeros(250, TRACE_DTYPE)
            # The change row carries the count of the 125 rows before it.
            events["measurement_index"] = np.arange(1, 251) - (np.arange(250) >= 125)
            events["env"][125:] = 1
            events["ft"] = rng.random(250)
            # Each leg's best starts afresh, as a planner's does.
            for leg in (slice(0, 125), slice(126, 250)):
                events["best_ft"][leg] = np.minimum.accumulate(events["ft"][leg])
            events["env_change"][125] = True
            events["ft"][125] = events["best_ft"][125] = np.nan
            traces[(label, rep)] = RunTrace(events, ("A", "B"))
    return ResultBundle(spec=spec, labels=smoke_bundle.labels, traces=traces)


class TestStreamedTraces:
    """traces.csv is written one repetition at a time, never held whole, and
    read a block of rows at a time."""

    def test_peak_memory_is_a_fraction_of_the_file(self, smoke_bundle, tmp_path, monkeypatch):
        bundle = long_bundle(smoke_bundle)
        peaks = {}
        real_replace = os.replace

        def replace_noting_peak(src, dst):
            peaks[Path(dst).name] = tracemalloc.get_traced_memory()[1]
            real_replace(src, dst)

        # A first, untraced write leaves out what the summary's lazy imports
        # allocate.
        write_bundle_outputs(bundle, tmp_path)
        monkeypatch.setattr(os, "replace", replace_noting_peak)
        tracemalloc.start()
        try:
            write_bundle_outputs(bundle, tmp_path)
        finally:
            tracemalloc.stop()
        size = (tmp_path / "traces.csv").stat().st_size
        assert size > 3_000_000
        assert peaks["traces.csv"] < size / 4

    def test_reading_peaks_below_three_times_the_file(self, smoke_bundle, tmp_path):
        # A reader that holds a list of cells per row peaks near 9 times the
        # file.
        bundle = long_bundle(smoke_bundle)
        path = tmp_path / "traces.csv"
        write_atomic(path, traces_text(bundle))
        tracemalloc.start()
        try:
            labels, traces = read_traces_csv(path, bundle.spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3_000_000
        assert peak < 3 * size
        assert labels == bundle.labels and list(traces) == list(bundle.traces)
        for key, trace in bundle.traces.items():
            assert traces[key].events.tobytes() == trace.events.tobytes(), key
            assert traces[key].env_ids == trace.env_ids, key

    def test_failure_mid_stream_keeps_the_previous_file(self, smoke_bundle, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "traces.csv"
        write_atomic(path, "previous\n")
        format_rows = harness.traces_csv_text
        last = list(smoke_bundle.traces)[-1]

        def failing(label, rep, trace):
            if (label, rep) == last:
                assert list(tmp_path.glob(".traces.csv.*.tmp")), "not written through a temporary"
                raise RuntimeError("formatting failed")
            return format_rows(label, rep, trace)

        monkeypatch.setattr(harness, "traces_csv_text", failing)
        with pytest.raises(RuntimeError, match="formatting failed"):
            write_bundle_outputs(smoke_bundle, tmp_path)
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert not list(tmp_path.glob(".traces.csv.*.tmp"))

    def test_quoted_environment_id_round_trips(self, tmp_path):
        # An environment id with a comma and a quote, and a repeated planner
        # kind, whose second label is `stationary@2`: traces.csv is what
        # `csv.writer` writes for the cells, and summarize reads it back.
        manifest = write_small_dataset(tmp_path)
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("environment: A ", 'environment: A,"x ')
                            .replace("leg: A ", 'leg: A,"x ')
                            .replace("planners: lidos, stationary",
                                     "planners: lidos, stationary, stationary"),
                            encoding="utf-8")
        out = tmp_path / "out"
        scenario = ["--scenario", str(manifest), "--out", str(out)]
        assert cli_main(["run", *scenario]) == 0
        rows = (out / "traces.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].startswith('lidos,0,1,"A,""x",')
        bundle = run_scenario(parse_scenario(manifest))
        assert bundle.labels == ("lidos", "stationary", "stationary@2")
        assert rows[0] == ",".join(TRACE_HEADER)
        assert "\n".join(rows[1:]) + "\n" == "".join(
            csv_writer_rows(label, rep, bundle.traces[(label, rep)])
            for label in bundle.labels for rep in range(bundle.spec.repetitions))
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli_main(["summarize", *scenario]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written


    def test_trace_rows_quote_as_csv_writer(self):
        # Ids a scenario cannot spell are quoted as `csv.writer` quotes them
        # too, the empty id included, which alone on a row would be `""`.
        trace = RunTrace()
        for index, env_id in enumerate(["", 'say "hi"', "a,b", "x\ny", " ", "\r", "B"]):
            trace.record(index, env_id, env_change=True)
            trace.record(index + 1, env_id, 0.5 * index, -0.25, adaptation_sent=index % 2 == 1)
        assert traces_csv_text("k,@2", 3, trace) == csv_writer_rows("k,@2", 3, trace)


def csv_writer_rows(label: str, rep: int, trace: RunTrace) -> str:
    """One repetition's traces.csv rows as `csv.writer` writes their cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for index, env, ft, best_ft, sent, change in trace.events.tolist():
        writer.writerow([label, rep, index, trace.env_ids[env],
                         repr(ft) if ft == ft else "", repr(best_ft) if best_ft == best_ft else "",
                         int(sent), int(change)])
    return buf.getvalue()


class TestTraceBlocks:
    """`read_traces_csv` turns `_TRACE_BLOCK` records at a time into arrays;
    a row's checks and line number do not depend on its block."""

    BLOCK = 16

    @pytest.fixture
    def run_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_TRACE_BLOCK", self.BLOCK)
        manifest = write_small_dataset(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
        return manifest, out

    @staticmethod
    def summarize_error(manifest, out, capsys) -> str:
        capsys.readouterr()
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", ROW_DAMAGES, ids=ROW_DAMAGE_IDS)
    def test_damage_past_the_first_block_names_its_line(self, run_out, capsys, damage,
                                                        message):
        manifest, out = run_out
        path = out / "traces.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # A measurement row of the fourth block, past its first record.
        at = next(i for i in range(3 * self.BLOCK + 3, len(lines))
                  if lines[i].endswith(",0,0\n"))
        lines[at] = ",".join(damage(lines[at].rstrip("\n").split(","))) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        err = self.summarize_error(manifest, out, capsys)
        assert f"traces.csv:{at + 1}: " in err and message in err

    def test_blank_lines_across_blocks_keep_later_line_numbers(self, run_out, capsys):
        manifest, out = run_out
        path = out / "traces.csv"
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "traces.csv"}
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # Blank lines from the second-to-last record of the first block on:
        # that block ends in two, the next holds only blank ones, and the one
        # after starts with one.
        rows[self.BLOCK - 2:self.BLOCK - 2] = ["\n"] * (self.BLOCK + 3)
        path.write_text(header + "".join(rows), encoding="utf-8")
        assert cli_main(["summarize", "--scenario", str(manifest), "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "traces.csv"} == before
        at = next(i for i in range(3 * self.BLOCK + 3, len(rows))
                  if rows[i].endswith(",0,0\n"))
        rows[at] = rows[at].replace(",0,0\n", ",0\n")
        path.write_text(header + "".join(rows), encoding="utf-8")
        err = self.summarize_error(manifest, out, capsys)
        assert f"traces.csv:{at + 2}: expected 8 cells, got 7" in err


class TestStreamedTables:
    """`lidos synth` builds only arrays of one value per plan, and no plan
    tuple, dict or table; it writes each table a block of plans at a time,
    from the slices of its environment's array."""

    def test_peak_memory_is_below_the_distance_matrix(self, tmp_path):
        shapes = [
            # 15,625 plans x 40 peaks of float64: the 5.0 MB a matrix of every
            # plan-to-peak distance would take. The landscape builds no such
            # matrix, only arrays of one value per plan, one center at a time.
            ("6", 1.25 * 5**6 * 40 * 8),
            # 78,125 plans: a dict of plan tuples to floats takes over 100
            # bytes a plan, where a float64 array takes 8.
            ("7", 64 * 5**7),
        ]
        for options, bound in shapes:
            argv = ["synth", "--options", options, "--domain-size", "5"]
            # A first, untraced call leaves out what lazy imports allocate.
            assert cli_main([*argv, "--out", str(tmp_path / f"first{options}")]) == 0
            tracemalloc.start()
            try:
                assert cli_main([*argv, "--out", str(tmp_path / f"traced{options}")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (options, peak)

    @pytest.mark.parametrize("options, domain_size, blocks, rest", [
        (1, 40, 0, 40),
        (13, 2, 8, 0),
        (3, 17, 4, 817),
    ], ids=["under-one-block", "whole-blocks", "partial-last-block"])
    def test_tables_are_their_csv_text(self, tmp_path, options, domain_size, blocks, rest):
        assert cli_main(["synth", "--out", str(tmp_path), "--options", str(options),
                         "--domain-size", str(domain_size), "--peaks", "5",
                         "--seed", "4"]) == 0
        tables = synth_tables(n_options=options, domain_size=domain_size, n_peaks=5,
                              noise_seed=4)
        landscape = synth_landscape(n_options=options, domain_size=domain_size, n_peaks=5,
                                    noise_seed=4)
        for name, table, values in zip(("env_a.csv", "env_b.csv"), tables, landscape):
            expected = csv_text([*table.option_names, "performance"],
                                ([*plan, repr(table.rows[plan])] for plan in sorted(table.rows)))
            assert (tmp_path / name).read_bytes() == expected.encode()
            header, *chunks = cli._table_chunks(table.option_names, values, domain_size)
            lines = [cli.TABLE_BLOCK] * blocks + [rest] * (rest > 0)
            assert [chunk.count("\n") for chunk in chunks] == lines

    @pytest.mark.parametrize("options, domain_size", [
        (1, 2**16), (2, 2**8), (2, 2**10), (3, 41), (16, 2)])
    def test_table_text_holds_one_block(self, options, domain_size):
        """The text of one block of lines and its list of lines, with the
        shared cells of the last options, whatever the shape: a single
        option of 65,536 values used to hold a string per value, over 5 MiB."""
        values = np.arange(domain_size**options) / 7
        chunks = cli._table_chunks(synth_option_names(options), values, domain_size)
        tracemalloc.start()
        try:
            size = sum(map(len, chunks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > len(values) * (2 * options + 2)
        assert peak < cli.TABLE_BLOCK * 320, peak

    def test_failure_in_the_last_block_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "env_b.csv"
        write_atomic(path, "previous\n")
        table_chunks = cli._table_chunks
        calls = itertools.count(1)

        def failing(option_names, values, domain_size):
            *chunks, last = table_chunks(option_names, values, domain_size)
            yield from chunks
            if next(calls) == 2:  # environment B's table
                assert list(tmp_path.glob(".env_b.csv.*.tmp")), "not written through a temporary"
                raise RuntimeError("formatting failed")
            yield last

        monkeypatch.setattr(cli, "_table_chunks", failing)
        with pytest.raises(RuntimeError, match="formatting failed"):
            cli_main(["synth", "--out", str(tmp_path), "--options", "3",
                      "--domain-size", "17", "--peaks", "5"])
        assert (tmp_path / "env_a.csv").exists()
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert not list(tmp_path.glob(".env_b.csv.*.tmp"))
        assert not (tmp_path / "scenario.txt").exists()


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
def test_accounting_law_over_returning_legs(tmp_path, seed, twin_probe):
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
        + "".join(f"leg: {e} {rng.randint(20, 35)}\n" for e in legs),
        encoding="utf-8",
    )
    bundle = run_scenario(parse_scenario(manifest))
    assert len(twin_probe) == len(bundle.traces) == 4 * 2
    for (key, trace), (twin, epochs) in zip(bundle.traces.items(), twin_probe.items()):
        assert [epoch.env_id for epoch in epochs] == legs, key
        assert_accounting(trace, twin, epochs)
        assert set(epochs[2].raised) & set(epochs[0].raised), key


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

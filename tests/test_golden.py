"""Frozen sha256 digests of the files small seeded CLI runs emit.

`test_cli_determinism` compares two fresh runs with each other, so it cannot
see a change that moves results deterministically. These digests can: a
refactor or speed-up that keeps behaviour leaves every byte alone. Changing a
digest is a declared semantic change and has to say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lidos
from lidos.cli import main as cli_main
from lidos.harness import parse_scenario, run_scenario, traces_csv_text

# `lidos synth --options 5 --domain-size 6 --peaks 12 --seed 4`: 7,776 plans.
SYNTH_ARGS = ["--options", "5", "--domain-size", "6", "--peaks", "12", "--seed", "4"]
SYNTH_DIGESTS = {
    "env_a.csv":
        "3df77834e44fc56bf8d40f96d56d5946b84a43fbfb6560799350bb979ecebc3f",
    "env_b.csv":
        "3e343fa2ee9b1f3c564ccc6d686b42979f8b4060bc02687b19e4df201f9f66d0",
    "scenario.txt":
        "837888f1036d70afc3d60bc4807ab85b0a031a690cd569d9c5df6de92ab42c21",
}

# Every plan of the synth space is measured, and 11 repetitions take the
# normal-approximation rank-sum.
DENSE_ARGS = ["--repetitions", "11", "--seed", "5"]
DENSE_OVERRIDES = {"repetitions": "11", "seed": "5"}
DENSE_DIGESTS = {
    "pairwise.csv":
        "95386c23d303d341cb3380ab7fe052b726f756c08974c42248d15e924720dd9f",
    "ranks.csv":
        "d0a5be3ef56259c34aea75c8fb2de2b74737206be7f4cb24fd164a037945c9f1",
    "speedups.csv":
        "7bd0a3c9550ab36ff76dc49a3706684f75d537e883ee7217ab891e61227aab23",
    "summary.csv":
        "8c697b35f9c9aa8497c1b4ee75c36a4766085e150326c12f76411106a86d6665",
    "summary.txt":
        "d21b0b0a82c017d2a0658510997f12d70fc914acc3612a616787ab9bb847fff9",
    "traces.csv":
        "31d7831937186145c5929bb0535722cc8311967bfdc4a621712c03bcb7cc98f1",
    "trajectories.csv":
        "52a8a302d3a2f93dcacfe96e6dbbb1b4c861d61b4959edaac4249a47d3c1591d",
}

# Eight options, three of them with spans (3, 5, 8) whose inverse is not a
# power of two or has uneven gaps; 600 of 4,320 plans are measured, the same
# rows in both environments, so most offspring are repaired. Four repetitions
# take the exact rank-sum.
SPARSE_DOMAINS = ((0, 1), (0, 1, 2, 3), (0, 1, 2), (0, 1), (0, 2, 5), (0, 1),
                  (1, 2, 4, 8, 9), (0, 1, 2))
SPARSE_ROWS = 600
SPARSE_DIGESTS = {
    "pairwise.csv":
        "3e1924650fb9cc6de788eaabb1f70ad56b5d85744878b8d0cbcdcb8e3fa97295",
    "ranks.csv":
        "a9595d75a9401bb88863aace4afe12cc57093c74f5718c83567c3a098c289952",
    "speedups.csv":
        "3fc0579c92ec00ae0505de25c5b8ec2445c9911664780283ea2bc8c6a21f6fa5",
    "summary.csv":
        "028678d8162e50462935c802d8461194a4baee8ac986f41be4b71004412b41b5",
    "summary.txt":
        "1d1da1af104d13074cd46830e46a0039e3c0da1aa330f9c98e7aadbed48f96d5",
    "traces.csv":
        "bd6a8da3d11927e8f0cba94daae46c53be06d27776dc567bd8aaa83d24daca90",
    "trajectories.csv":
        "72332754777c47f9ef60b135f60362e2d930bb357287f01714381859e1eab453",
}


def digests(directory) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_sparse_scenario(directory):
    directory.mkdir()
    plans = sorted(random.Random(11).sample(
        list(itertools.product(*SPARSE_DOMAINS)), SPARSE_ROWS))
    header = ",".join(f"o{i + 1}" for i in range(len(SPARSE_DOMAINS))) + ",performance\n"
    for name, seed in (("env_a.csv", 21), ("env_b.csv", 22)):
        rng = random.Random(seed)
        weights = [rng.uniform(-1.0, 1.0) for _ in SPARSE_DOMAINS]
        lines = [header]
        for plan in plans:
            value = sum(w * v for w, v in zip(weights, plan)) + rng.uniform(0.0, 6.0)
            lines.append(",".join(map(str, plan)) + f",{value!r}\n")
        (directory / name).write_text("".join(lines), encoding="utf-8")
    manifest = directory / "scenario.txt"
    manifest.write_text(
        "system: golden_sparse\n"
        "seed: 13\n"
        "repetitions: 4\n"
        "k: 40\n"
        "stride: 10\n"
        "planners: lidos, lidos_sta, pseudo_dynamic, stationary\n"
        "environment: A env_a.csv minimize\n"
        "environment: B env_b.csv minimize\n"
        "leg: A 60\n"
        "leg: B 60\n",
        encoding="utf-8",
    )
    return manifest


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "synth"
    assert cli_main(["synth", "--out", str(out), *SYNTH_ARGS]) == 0
    return out


def test_synth_bytes(synth_dir):
    assert digests(synth_dir) == SYNTH_DIGESTS


def test_dense_run_bytes(synth_dir, tmp_path):
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(synth_dir / "scenario.txt"),
                     "--out", str(out), *DENSE_ARGS]) == 0
    assert digests(out) == DENSE_DIGESTS


def test_sparse_run_bytes(tmp_path):
    manifest = write_sparse_scenario(tmp_path / "inputs")
    out = tmp_path / "out"
    assert cli_main(["run", "--scenario", str(manifest), "--out", str(out)]) == 0
    assert digests(out) == SPARSE_DIGESTS


def test_program_run_bytes(synth_dir, tmp_path):
    """`python -m lidos run`, which spreads the repetitions over every CPU
    the process may use, writes the same bytes as the in-process serial run."""
    out = tmp_path / "out"
    src = str(Path(lidos.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "lidos", "run",
                           "--scenario", str(synth_dir / "scenario.txt"), "--out", str(out),
                           *DENSE_ARGS], env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert digests(out) == DENSE_DIGESTS


@pytest.mark.parametrize("scenario", ["dense", "sparse"])
def test_parallel_run_equals_serial(synth_dir, tmp_path, scenario):
    """Two and three forked workers give the serial loop's traces, counters
    and in-memory plans, whatever number of CPUs this machine has."""
    if scenario == "dense":
        spec, digest = (parse_scenario(synth_dir / "scenario.txt", DENSE_OVERRIDES),
                        DENSE_DIGESTS["traces.csv"])
    else:
        spec, digest = (parse_scenario(write_sparse_scenario(tmp_path / "inputs")),
                        SPARSE_DIGESTS["traces.csv"])
    # Compared by digest: pytest's diff of two long texts takes minutes.
    serial = run_scenario(spec, workers=1)
    assert text_digest(traces_csv_text(serial)) == digest
    for workers in (2, 3):
        parallel = run_scenario(spec, workers=workers)
        assert text_digest(traces_csv_text(parallel)) == digest
        assert parallel.final_counters == serial.final_counters
        for key, trace in serial.traces.items():
            assert parallel.traces[key].plans == trace.plans, key


# The files `lidos summarize` and `lidos trajectories` rewrite from traces.csv.
REWRITES = {
    "summarize": ("pairwise.csv", "ranks.csv", "speedups.csv", "summary.csv",
                  "summary.txt", "trajectories.csv"),
    "trajectories": ("trajectories.csv",),
}


@pytest.mark.parametrize("verb", sorted(REWRITES))
def test_dense_recomputed_bytes(synth_dir, tmp_path, verb):
    scenario = ["--scenario", str(synth_dir / "scenario.txt"), "--out", str(tmp_path), *DENSE_ARGS]
    assert cli_main(["run", *scenario]) == 0
    for name in REWRITES[verb]:
        (tmp_path / name).unlink()
    assert cli_main([verb, *scenario]) == 0
    assert digests(tmp_path) == DENSE_DIGESTS


@pytest.mark.parametrize("verb", sorted(REWRITES))
def test_sparse_recomputed_bytes(tmp_path, verb):
    manifest = write_sparse_scenario(tmp_path / "inputs")
    out = tmp_path / "out"
    scenario = ["--scenario", str(manifest), "--out", str(out)]
    assert cli_main(["run", *scenario]) == 0
    for name in REWRITES[verb]:
        (out / name).unlink()
    assert cli_main([verb, *scenario]) == 0
    assert digests(out) == SPARSE_DIGESTS

"""Frozen sha256 digests of the files small seeded CLI runs emit.

`test_cli_determinism` compares two fresh runs with each other, so it cannot
see a change that moves results deterministically. These digests can: a
refactor or speed-up that keeps behaviour leaves every byte alone. Changing a
digest is a declared semantic change and has to say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import subprocess
import sys

import pytest

from lidos import harness
from lidos.cli import main as cli_main
from lidos.harness import bundle_from_traces, parse_scenario, run_scenario
from lidos.twin import synth_tables

from conftest import child_env, sum_in_order, traces_text

# `lidos synth --options 5 --domain-size 6 --peaks 12 --seed 4`: 7,776 plans.
SYNTH_ARGS = ["--options", "5", "--domain-size", "6", "--peaks", "12", "--seed", "4"]
SYNTH_DIGESTS = {
    "env_a.csv":
        "e8ee3b23384d3da5b366f1ada4d38f0e065ed30970a3d2443452b749e7cc222c",
    "env_b.csv":
        "4df43d783b68c6bf2b7a4c208f7762067b7588d14a715179d50748d7e055ecc7",
    "scenario.txt":
        "837888f1036d70afc3d60bc4807ab85b0a031a690cd569d9c5df6de92ab42c21",
}

# Shapes the default digest never reaches: the `lidos synth` flags of each,
# and the digests of what it writes.
# - eight options multiply eight basin factors per plan, in option order, so
#   a changed order would show; distances count whole steps, so a span of 3,
#   whose inverse is inexact, rounds none of them;
# - a wide domain of 40 values with a shift of 3;
# - seven values per option over four options.
SYNTH_SHAPES = {
    "8x4": (["--options", "8", "--domain-size", "4", "--peaks", "10", "--seed", "2"], {
        "env_a.csv":
            "00125f12feb20ada4049a1b3df0908dbea31f56807495f29f186eb370cdc4f90",
        "env_b.csv":
            "d1ead30fa53c81d0082c2d894788858e0f44e8b9f00bfe7186940ac1e194b3ff",
        "scenario.txt":
            "5af5d2a1ed1756819fe44641dbd97075e5db8ce2be42d86a79284856d3a7f1d3",
    }),
    "2x40": (["--options", "2", "--domain-size", "40", "--peaks", "7", "--peak-shift", "3",
              "--seed", "1"], {
        "env_a.csv":
            "78cb55f9853704ea8971eecd672ee8d069f5246d8346ecab55317a0aa59093d6",
        "env_b.csv":
            "cb74c3da6bec1ba1a7a188a2ca539f38aed6af7a3567897061f312ceb7aa5162",
        "scenario.txt":
            "5c47999b63b1cf5c0991c415447499380ce75cf199751719ff2a9300e2dbbf07",
    }),
    "4x7": (["--options", "4", "--domain-size", "7", "--peaks", "9", "--seed", "3"], {
        "env_a.csv":
            "6d80c2ddae67487e50162c94fc738327c688701e133cbe28d2575d88f3b147c5",
        "env_b.csv":
            "34896a3459ff0b352976300e46cd4fcc417783b28addcc76e89c9df4058b9e54",
        "scenario.txt":
            "97d935e3c64dea3973272a6e350ee7d6621ab47c57ef4b6aa567f90d940b229f",
    }),
}

# Every plan of the synth space is measured, and 11 repetitions take the
# normal-approximation rank-sum. `lidos summarize` takes the run's seed, from
# which the rank bootstrap draws; the traces give the repetitions.
DENSE_ARGS = ["--repetitions", "11", "--seed", "5"]
DENSE_SUMMARIZE_ARGS = ["--seed", "5"]
DENSE_OVERRIDES = {"repetitions": "11", "seed": "5"}
DENSE_DIGESTS = {
    "pairwise.csv":
        "e05f91c15f10b8752f23134d38b8d82c5c6d5dc594f530f5f141f2b570d4010e",
    "ranks.csv":
        "a242c61e37eacbadde56833c1a4d2d500df9b88d26788089b6572a19de36c6a5",
    "speedups.csv":
        "5334a40282b0d2663f6407e211d4fb7eb0ba661df52e2c1b29921c8b79adfb7a",
    "summary.csv":
        "135656c449c1e19fe46b14a9dcf1a5ce0163384c0867a0e41d89cd9226b06ef9",
    "summary.txt":
        "8a71399e2b115dcade558d2248fe0f0ed05f3cfa72d1bdc1a101f31c875dfd97",
    "traces.csv":
        "f130ff254b4a551251c925b663463c8092fb7023cb04a7472cd95a52e9165baf",
    "trajectories.csv":
        "9dc6442f1df3f042c856cb966433535940e44e9ed4aabebfeede33e77bccab4f",
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
        "b69f7a2d9640a8c5ab60b5b958fec4ff9fadfe4d842682b71a020c6b1f608bff",
    "traces.csv":
        "bd6a8da3d11927e8f0cba94daae46c53be06d27776dc567bd8aaa83d24daca90",
    "trajectories.csv":
        "72332754777c47f9ef60b135f60362e2d930bb357287f01714381859e1eab453",
}

# The sparse scenario run with other directions or planners:
# (environment A's direction, B's direction), extra `lidos run` flags, digests.
SPARSE_VARIANTS = {
    # Ranks sort by the canonical median, so within a rank the highest median
    # in the table's units comes first.
    "maximize": (("maximize", "maximize"), [], {
        "pairwise.csv":
            "29c94dd7d2741e37db3dc7e155f8b6b14a76c6d7abb7ea074a53ec0ee899e2df",
        "ranks.csv":
            "37e947fca435560b275f5df73c44b02858c7185aee61177beb9fc1ba9593bb87",
        "speedups.csv":
            "a6f6091d100b308886681ca81ab3cdf519c41ceb506334a1344bb87866d7b58d",
        "summary.csv":
            "8a75699016b44c2fb8c3cc11ff0830e57f562844c161be9d1640997123399010",
        "summary.txt":
            "7b22c3513ab0a6a4f863dd381f6c0fd5de4d9d3c1432616b1915527d174e358d",
        "traces.csv":
            "33e898aed04933465c983515d06bca34096bee163d82a5fd1a534ff21360fbe4",
        "trajectories.csv":
            "d5896b5e5edf2754067c5c752d8dcedc263f6abc96a5af5aef098bcbfd677aca",
    }),
    # A lone planner takes rank 1, and nothing is compared with `lidos`.
    "stationary": (("minimize", "minimize"), ["--planners", "stationary"], {
        "pairwise.csv":
            "aff43b97bd3cb8bb794f3c9fb76138b09d43e1bea7d7125c2a599d073befc66e",
        "ranks.csv":
            "2f97ade39ec88f61f1c781812933c1a7f692a06c753ba8e6e070f29c5dd53447",
        "speedups.csv":
            "a48a290e35726776d08d9561ca76e15450b1861c7debd634b9c5ab74d8ba0e8f",
        "summary.csv":
            "d32b4321a4d09163569c861d5f87fac7ee894ac5d24f399009ddca78a581a9f9",
        "summary.txt":
            "0f1df8f111f5a019dc624f9791fb00f7ff3a23f072fa221b57d82966ba40c5f8",
        "traces.csv":
            "696bd35ea3a19d27ebdb052e2334f10f79f09d15e3995167f21c9319b43ececc",
        "trajectories.csv":
            "4a7be0275758437d91544c19f564613e80c2457d21842257db3ecea7c3497359",
    }),
    # The summaries are in B's units; trajectories.csv gives each leg in its
    # own environment's units.
    "mixed": (("minimize", "maximize"), [], {
        "pairwise.csv":
            "2a999a7b8a1840ac7bbf1b472cc29947933e87c4584c0373da597adb8ce706c7",
        "ranks.csv":
            "7d3351b1808e3ceca98ec0d0efc7ce5b0f665dabca6e28a895a9acdb7759db51",
        "speedups.csv":
            "d589fc4121bb0212ab31cafe909cda0cc24f18d7c0e8934171cf254a64d19b83",
        "summary.csv":
            "d46694cef663e5812934697b978a242ec7242a8905fe70d5634eca0f2863be33",
        "summary.txt":
            "e2c4596c67f4a168911116ffd480475adbd0b6655d141c00be551fa585e503af",
        "traces.csv":
            "61e2229964698aed917e7b164ce6d73e30a8d858d78e99ebe3f80932c2e73f75",
        "trajectories.csv":
            "d72fc2789b1b947ccedd2594a19dfe744dae930c3846f76a7fbf53d1807228da",
    }),
}


def digests(directory) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_sparse_scenario(directory, directions=("minimize", "minimize")):
    directory.mkdir()
    plans = sorted(random.Random(11).sample(
        list(itertools.product(*SPARSE_DOMAINS)), SPARSE_ROWS))
    header = ",".join(f"o{i + 1}" for i in range(len(SPARSE_DOMAINS))) + ",performance\n"
    for name, seed in (("env_a.csv", 21), ("env_b.csv", 22)):
        rng = random.Random(seed)
        weights = [rng.uniform(-1.0, 1.0) for _ in SPARSE_DOMAINS]
        lines = [header]
        for plan in plans:
            # Added in order, as `sum()` does up to 3.11: the digests were
            # taken with those values.
            value = sum_in_order(w * v for w, v in zip(weights, plan)) + rng.uniform(0.0, 6.0)
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
        f"environment: A env_a.csv {directions[0]}\n"
        f"environment: B env_b.csv {directions[1]}\n"
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


@pytest.mark.parametrize("shape", sorted(SYNTH_SHAPES))
def test_synth_shape_bytes(tmp_path, shape):
    flags, expected = SYNTH_SHAPES[shape]
    assert cli_main(["synth", "--out", str(tmp_path), *flags]) == 0
    assert digests(tmp_path) == expected


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


def run_program(*args: str, **env: str) -> None:
    """Run `python -m lidos` with `args` in this process's environment plus
    `env`, and check that it exits 0."""
    done = subprocess.run([sys.executable, "-m", "lidos", *args], env=child_env(**env),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr


def test_program_run_bytes(synth_dir, tmp_path):
    """`python -m lidos run`, which spreads the repetitions over every CPU
    the process may use, writes the same bytes as the in-process serial run."""
    out = tmp_path / "out"
    run_program("run", "--scenario", str(synth_dir / "scenario.txt"), "--out", str(out),
                *DENSE_ARGS)
    assert digests(out) == DENSE_DIGESTS


# Settings that send numpy, OpenBLAS and glibc's libm down older code paths
# than this machine's: numpy without its AVX-512 and AVX2 (x86-64-v3) loops,
# OpenBLAS with its Prescott kernels, and glibc without AVX2, FMA and
# AVX-512. numpy and glibc accept names of features a machine lacks, so the
# settings can be given anywhere.
OLD_PATHS = {
    "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
    "OPENBLAS_CORETYPE": "Prescott",
    "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX2_Usable,-FMA_Usable,-AVX512F",
}


def test_program_bytes_on_old_code_paths(tmp_path):
    """Every pinned synth shape and the dense run give their digests when the
    libraries below the program take their older code paths."""
    shapes = {"default": (SYNTH_ARGS, SYNTH_DIGESTS), **SYNTH_SHAPES}
    for shape, (flags, expected) in shapes.items():
        run_program("synth", "--out", str(tmp_path / shape), *flags, **OLD_PATHS)
        assert digests(tmp_path / shape) == expected, shape
    out = tmp_path / "run"
    run_program("run", "--scenario", str(tmp_path / "default" / "scenario.txt"),
                "--out", str(out), *DENSE_ARGS, **OLD_PATHS)
    assert digests(out) == DENSE_DIGESTS


def test_synth_bytes_whatever_the_blas_thread_count(tmp_path):
    """78,125 plans, a shape large enough for OpenBLAS to split a product's
    rows between two threads, give the same tables on one thread and two."""
    for threads in ("1", "2"):
        run_program("synth", "--out", str(tmp_path / threads), "--options", "7",
                    "--domain-size", "5", OPENBLAS_NUM_THREADS=threads)
    assert digests(tmp_path / "1") == digests(tmp_path / "2")


@pytest.mark.parametrize("scenario", ["dense", "sparse"])
def test_parallel_run_equals_serial(synth_dir, tmp_path, scenario):
    """Two and three forked workers give the serial loop's traces, whatever
    number of CPUs this machine has."""
    if scenario == "dense":
        spec, digest = (parse_scenario(synth_dir / "scenario.txt", DENSE_OVERRIDES),
                        DENSE_DIGESTS["traces.csv"])
    else:
        spec, digest = (parse_scenario(write_sparse_scenario(tmp_path / "inputs")),
                        SPARSE_DIGESTS["traces.csv"])
    # Compared by digest: pytest's diff of two long texts takes minutes.
    serial = run_scenario(spec, workers=1)
    assert text_digest(traces_text(serial)) == digest
    for workers in (2, 3):
        parallel = run_scenario(spec, workers=workers)
        assert text_digest(traces_text(parallel)) == digest


@pytest.mark.parametrize("scenario", ["dense", "sparse"])
def test_run_bundle_equals_its_read_back_traces(synth_dir, tmp_path, scenario):
    """A run keeps exactly what traces.csv holds: every trace of a serial run
    is the trace `bundle_from_traces` reads back from the run's file."""
    if scenario == "dense":
        spec = parse_scenario(synth_dir / "scenario.txt", DENSE_OVERRIDES)
    else:
        spec = parse_scenario(write_sparse_scenario(tmp_path / "inputs"))
    ran = run_scenario(spec)
    path = tmp_path / "traces.csv"
    path.write_text(traces_text(ran), encoding="utf-8")
    read = bundle_from_traces(spec, path)
    assert read.labels == ran.labels
    assert list(read.traces) == list(ran.traces)
    for key, trace in ran.traces.items():
        back = read.traces[key]
        assert back.events.tobytes() == trace.events.tobytes(), key
        assert back.env_ids == trace.env_ids, key


def write_workload_scenario(directory, n_options, keep=None):
    """A benchmark workload's inputs, over two repetitions: the tables of
    `synth_tables(n_options, 5)`, the benchmark's landscape, keeping a
    random `keep` share of the plans in both, and the benchmark's planners,
    k and legs."""
    directory.mkdir()
    tables = synth_tables(n_options, 5)
    plans = sorted(tables[0].rows)
    if keep is not None:
        plans = sorted(random.Random(1).sample(plans, int(len(plans) * keep)))
    header = ",".join(tables[0].option_names) + ",performance\n"
    for name, table in zip(("env_a.csv", "env_b.csv"), tables):
        (directory / name).write_text(header + "".join(
            ",".join(map(str, plan)) + f",{table.rows[plan]!r}\n" for plan in plans),
            encoding="utf-8")
    manifest = directory / "scenario.txt"
    manifest.write_text(
        "system: workload\n"
        "seed: 3\n"
        "repetitions: 2\n"
        "k: 150\n"
        "stride: 15\n"
        "planners: lidos, lidos_sta, pseudo_dynamic, stationary\n"
        "environment: A env_a.csv minimize\n"
        "environment: B env_b.csv minimize\n"
        "leg: A 150\n"
        "leg: B 150\n",
        encoding="utf-8",
    )
    return manifest


@pytest.mark.parametrize("scenario", ["sparse-repair", "sparse", "dense"])
def test_no_workload_reaches_the_scan(tmp_path, monkeypatch, scenario):
    """On the sparse-repair shape (7,812 of 78,125 plans) and the sparse
    golden, the nearest-row map answers every repair of a serial run, which
    builds each table's map and never its scan; on the dense synth tables
    no repair reaches `nearest` at all."""
    if scenario == "sparse":
        manifest = write_sparse_scenario(tmp_path / "inputs")
    elif scenario == "sparse-repair":
        manifest = write_workload_scenario(tmp_path / "inputs", 7, keep=0.1)
    else:
        manifest = write_workload_scenario(tmp_path / "inputs", 6)
    loaded = []
    load = harness.load_scenario_tables

    def keep_tables(spec):
        space, tables = load(spec)
        loaded.extend(tables.values())
        return space, tables

    monkeypatch.setattr(harness, "load_scenario_tables", keep_tables)
    run_scenario(parse_scenario(manifest), workers=1)
    assert len(loaded) == 2
    if scenario == "sparse-repair":
        assert len(loaded[0]) == 7_812
    for table in loaded:
        if scenario == "dense":
            assert table._nearest_space is None
        else:
            assert table._map is not None
            assert table._columns is None and not table._nearest


# The files `lidos summarize` rewrites from traces.csv.
REWRITES = ("pairwise.csv", "ranks.csv", "speedups.csv", "summary.csv", "summary.txt",
            "trajectories.csv")
# trajectories.csv of the dense and sparse runs at `--stride 7`: the bytes the
# retired `lidos trajectories --stride 7` wrote.
STRIDE_7_TRAJECTORIES = {
    "dense": "08bb47974f652c0f7ebbc22d6ba89a28279a3e8e4af47e74d38d61926ca3856c",
    "sparse": "2df5e38c12691601abf6f99b22d846c5420a823f517d4d4aad0e1da375894359",
}


def check_recomputed(out, summarize_args, expected, case, stride_digest):
    """The "summarize" case rewrites every deleted file to its frozen bytes.
    The "trajectories" case re-derives trajectories.csv at stride 7, moving
    no other file, and then a plain `lidos summarize` restores the run's."""
    if case == "summarize":
        for name in REWRITES:
            (out / name).unlink()
    else:
        assert cli_main(["summarize", *summarize_args, "--stride", "7"]) == 0
        assert digests(out) == {**expected, "trajectories.csv": stride_digest}
    assert cli_main(["summarize", *summarize_args]) == 0
    assert digests(out) == expected


@pytest.mark.parametrize("case", ["summarize", "trajectories"])
def test_dense_recomputed_bytes(synth_dir, tmp_path, case):
    scenario = ["--scenario", str(synth_dir / "scenario.txt"), "--out", str(tmp_path)]
    assert cli_main(["run", *scenario, *DENSE_ARGS]) == 0
    check_recomputed(tmp_path, [*scenario, *DENSE_SUMMARIZE_ARGS], DENSE_DIGESTS, case,
                     STRIDE_7_TRAJECTORIES["dense"])


@pytest.mark.parametrize("case", ["summarize", "trajectories"])
def test_sparse_recomputed_bytes(tmp_path, case):
    manifest = write_sparse_scenario(tmp_path / "inputs")
    out = tmp_path / "out"
    scenario = ["--scenario", str(manifest), "--out", str(out)]
    assert cli_main(["run", *scenario]) == 0
    check_recomputed(out, scenario, SPARSE_DIGESTS, case, STRIDE_7_TRAJECTORIES["sparse"])


@pytest.mark.parametrize("variant", sorted(SPARSE_VARIANTS))
def test_sparse_variant_bytes(tmp_path, variant):
    """`lidos run` writes the frozen bytes, and `lidos summarize` rewrites
    them from traces.csv alone."""
    directions, flags, expected = SPARSE_VARIANTS[variant]
    manifest = write_sparse_scenario(tmp_path / "inputs", directions)
    out = tmp_path / "out"
    scenario = ["--scenario", str(manifest), "--out", str(out)]
    assert cli_main(["run", *scenario, *flags]) == 0
    assert digests(out) == expected
    for name in REWRITES:
        (out / name).unlink()
    assert cli_main(["summarize", *scenario]) == 0
    assert digests(out) == expected

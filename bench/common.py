"""What the untraced and the traced run share: paths, child processes,
the files of a round, and the result line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import Workload, round_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Call:
    ok: bool
    wall_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_lidos(args: list[str], log: Path) -> Call:
    """Run one `lidos` command in a child process, through launch.py; wall
    time from before the fork to the child's exit, peak RSS from the child's
    own rusage."""
    with open(log, "wb") as err:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "launch.py"), sys.executable, "-m", "lidos", *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err, check=False)
    if done.returncode != 0:
        raise BenchError(f"launch.py exited {done.returncode}")
    report = json.loads(done.stdout)
    if report["code"] != 0:
        sys.stderr.write(f"lidos {' '.join(args)} exited {report['code']}:\n"
                         f"{log.read_text(errors='replace')[-2000:]}\n")
    return Call(report["code"] == 0, report["wall_s"], report["peak_rss_mb"])


def require_program() -> None:
    if not (SRC / "lidos" / "__init__.py").is_file():
        raise BenchError(f"no lidos package under {SRC}; run from a source checkout")


def print_digests(label: str, directories: list[Path], command: str) -> None:
    """sha256 of every input and output file, so that a change can show that
    its output bytes did not move. Not gated on."""
    print(f"# {label}: regenerate with: {command}")
    for directory in directories:
        for name, digest in checks.digests(directory).items():
            print(f"sha256 {digest}  {os.path.relpath(directory / name, ROOT)}")


def prepare_round(workload: Workload, seed: int, round_no: int, work: Path):
    """Paths of one round: synth output, scenario inputs, run output."""
    sub = round_seed(workload.name, seed, round_no)
    base = work / f"round{round_no}"
    return sub, base / "synth", base / "inputs", base / "results"


def load_input_tables(manifest: Path) -> dict[str, dict]:
    return {env: checks.read_table(manifest.parent / f"env_{env.lower()}.csv")
            for env in ("A", "B")}


def input_problems(workload: Workload, synth_dir: Path, tables: dict) -> list[str]:
    problems = checks.check_synth_tables(synth_dir, workload.options, workload.domain_size)
    rows = workload.domain_size ** workload.options
    if workload.keep_fraction is not None:
        rows = int(rows * workload.keep_fraction)
    return problems + checks.check_input_tables(tables, rows)


def result(problems: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

"""The benchmark's workloads and the seeded inputs each round runs on.

Both workloads search the landscape `lidos synth` makes with its default
seed, 0. Landscapes of other seeds differ in the search work they cause (one
takes 12.6 s where seed 0 takes 5.5 s on synth-dense, through stalled legs),
by far more than any bound a benchmark could keep; a fixed landscape keeps
that out of the run-to-run spread. The run's `--seed` makes everything else:
a run is a fixed number of rounds, and each round derives its own seed from
`--seed` and the round number, which becomes the scenario's planner seed and,
on sparse-repair, picks the subset of rows kept.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

PLANNERS = ("lidos", "lidos_sta", "pseudo_dynamic", "stationary")
LEGS = (("A", 150), ("B", 150))
STRIDE = 15
# lidos' population size: a leg finishes the generation in progress, so it
# overshoots its budget by less than one population.
POPULATION = 20
# The acceptance suite's bound on A12 of lidos over lidos_sta.
A12_FLOOR = 0.56
LANDSCAPE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    options: int
    domain_size: int
    repetitions: int
    # Share of the synthesised rows kept, the same rows in both environments;
    # None runs the full tables.
    keep_fraction: float | None
    # Timed seconds of one round (one `lidos run` plus its summaries) on the
    # reference machine; `--seconds` is turned into a round count with it.
    round_s: float
    # `lidos summarize` calls after each run; sparse-repair's are short next
    # to its run, so it makes more of them to average the drift as well.
    summaries_per_round: int
    # Floor on A12 of lidos over lidos_sta, pooled over the run's rounds.
    a12_floor: float | None = A12_FLOOR

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def synth_args(self, out: Path) -> list[str]:
        return ["synth", "--out", str(out), "--seed", str(LANDSCAPE_SEED),
                "--options", str(self.options), "--domain-size", str(self.domain_size)]


WORKLOADS = {
    w.name: w
    for w in (
        # Every offspring is in the table: repair only passes plans through,
        # and the time goes to the genetic loop and Pareto selection. Fifty
        # repetitions take the normal-approximation rank-sum.
        Workload("synth-dense", options=6, domain_size=5, repetitions=50,
                 keep_fraction=None, round_s=8.0, summaries_per_round=2),
        # A 10% subset of 78,125 plans: most offspring fall off the table and
        # are repaired by a nearest-plan search. Ten repetitions take the
        # exact rank-sum enumeration.
        # A12 of lidos over lidos_sta is only reported here: over seeds it
        # ranged from 0.445 to 0.89 for one round of ten repetitions, and from
        # 0.49 to 0.81 for two rounds pooled, so no floor tells a fault from
        # chance.
        Workload("sparse-repair", options=7, domain_size=5, repetitions=10,
                 keep_fraction=0.1, round_s=16.0, summaries_per_round=5,
                 a12_floor=None),
    )
}


def round_seed(workload: str, seed: int, round_no: int) -> int:
    """Seed of one round's scenario, stable across processes and platforms."""
    digest = hashlib.sha256(f"{workload}:{seed}:{round_no}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def manifest_text(system: str, seed: int, repetitions: int) -> str:
    lines = [
        f"system: {system}",
        f"seed: {seed}",
        f"repetitions: {repetitions}",
        "k: 150",
        f"stride: {STRIDE}",
        "planners: " + ", ".join(PLANNERS),
        "environment: A env_a.csv minimize",
        "environment: B env_b.csv minimize",
    ]
    lines += [f"leg: {env} {budget}" for env, budget in LEGS]
    return "\n".join(lines) + "\n"


def make_inputs(workload: Workload, seed: int, synth_dir: Path, input_dir: Path) -> Path:
    """Write the round's tables and manifest from what `lidos synth` wrote;
    returns the manifest path."""
    input_dir.mkdir(parents=True, exist_ok=True)
    for name in ("env_a.csv", "env_b.csv"):
        lines = (synth_dir / name).read_text().splitlines(keepends=True)
        if workload.keep_fraction is not None:
            rows = len(lines) - 1
            # `lidos synth` writes both tables in plan order, so one line
            # number is one plan in both; the input-table check confirms it.
            keep = random.Random(seed).sample(range(1, rows + 1),
                                              int(rows * workload.keep_fraction))
            lines = [lines[0]] + [lines[i] for i in sorted(keep)]
        (input_dir / name).write_text("".join(lines))
    manifest = input_dir / "scenario.txt"
    manifest.write_text(manifest_text(workload.name, seed, workload.repetitions))
    return manifest

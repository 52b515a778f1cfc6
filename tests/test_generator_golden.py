"""Golden pins: the generated task-sets and one Figure 2 CSV, by digest.

Every sweep, CSV and cached verdict depends on the exact task-sets the
generator draws, so the stream is pinned here against recorded values:
a canonical dump of task-sets over both paper groups, and the CSV of a
small ``figure2`` run.  A change that moves either digest moves every
published figure; it must be deliberate and re-record both.
"""

from __future__ import annotations

import hashlib

from repro.cli import main
from repro.generator import GROUP1, GROUP2, generate_taskset
from repro.rng import default_rng

#: ``(seed, spawn_key, U)``: the sweep engine's per-item streams at a
#: few seeds, items and utilisations, low and high.
TRIPLES = [
    (seed, spawn_key, utilization)
    for seed in (0, 7, 2016)
    for spawn_key in ((0, 0), (3, 11), (14, 299))
    for utilization in (0.6, 1.75, 3.5, 6.0)
]

TASKSETS_SHA256 = "bfef668f9c01e184aa6e43057ad107a5526227f9f2267b935870dfef90eb9ec9"
FIGURE2_CSV_SHA256 = "1ceda5c6257d4bd39a0437c47eaabc3088843115a27002be654875e144e89476"


def _dump_taskset(taskset) -> list[str]:
    lines = []
    for task in taskset:
        dag = task.graph
        lines.append(
            f"task {task.name} prio={task.priority} "
            f"T={float.hex(task.period)} D={float.hex(task.deadline)} "
            f"L={float.hex(task.longest_path)} "
            f"vol={task.volume!r}:{type(task.volume).__name__}"
        )
        lines.append("nodes " + " ".join(
            f"{node.name}={node.wcet!r}:{type(node.wcet).__name__}"
            for node in dag.nodes
        ))
        lines.append("edges " + " ".join(f"{u}>{v}" for u, v in dag.edges))
        lines.append("order " + " ".join(dag.topological_order))
    return lines


def dump_tasksets() -> str:
    lines = []
    for profile_name, profile in (("GROUP1", GROUP1), ("GROUP2", GROUP2)):
        for seed, spawn_key, utilization in TRIPLES:
            rng = default_rng(seed, spawn_key=spawn_key)
            taskset = generate_taskset(rng, utilization, profile)
            lines.append(f"set {profile_name} {seed} {spawn_key} {utilization}")
            lines.extend(_dump_taskset(taskset))
    return "\n".join(lines) + "\n"


def test_generated_tasksets_match_the_recorded_digest():
    digest = hashlib.sha256(dump_tasksets().encode()).hexdigest()
    assert digest == TASKSETS_SHA256


def test_figure2_csv_matches_the_recorded_digest(tmp_path):
    out = tmp_path / "figure2.csv"
    assert main([
        "figure2", "--m", "4", "--tasksets", "12", "--step", "0.5",
        "--seed", "2016", "--jobs", "1", "--csv", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE2_CSV_SHA256

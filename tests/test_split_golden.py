"""Golden pins: the split DAGs and two ``splitsweep`` CSVs, by digest.

The split sweep's verdicts depend on the exact DAGs that
:func:`~repro.model.transforms.split_all_nodes` builds: their node
order and names, each part's WCET bit for bit (the last part absorbs
the rounding of the equal shares), the edge order, and the L, vol and
μ read from them.  A canonical dump of split DAGs over both paper
groups is pinned here, with the CSVs of two small ``splitsweep`` runs.
A change that moves any digest changes the split sweep's figures; it
must be deliberate and re-record them.
"""

from __future__ import annotations

import hashlib

from repro.cli import main
from repro.core.workload import mu_array
from repro.generator import GROUP1, GROUP2, generate_taskset
from repro.graph.paths import longest_path_length
from repro.model.transforms import split_all_nodes
from repro.rng import default_rng

#: ``(seed, U)`` of the task-sets whose DAGs are split.
PAIRS = [(0, 1.0), (7, 1.75), (2016, 2.5), (11, 3.5)]

THRESHOLDS = (1000, 100, 50, 25, 10, 5, 2.5)

OVERHEADS = (0, 0.5)

SPLIT_DAGS_SHA256 = "2f895dc0d86e884ed518ea12818289d02c31fba4651006c48f39502eafa1bba6"
SPLITSWEEP_CSV_SHA256 = "fd96323966ae158113184cc5e3e586f815002b47764cd03a36afb625daedffaa"
SPLITSWEEP_OVERHEAD_CSV_SHA256 = (
    "f4a25f4625b475e8ddcda4a54d749bdc278e64ebcb58fc60116ad459c589277b"
)


def _number(x) -> str:
    return f"{float(x).hex()}:{type(x).__name__}"


def _dump_dag(dag) -> list[str]:
    return [
        "nodes " + " ".join(
            f"{name}={_number(wcet)}" for name, wcet in zip(dag.node_names, dag.node_wcets)
        ),
        "edges " + " ".join(f"{u}>{v}" for u, v in dag.edges),
        "order " + " ".join(dag.topological_order),
        f"L={_number(longest_path_length(dag))} vol={_number(dag.volume)} q={len(dag) - 1}",
        "mu " + " ".join(_number(x) for x in mu_array(dag, 4)),
    ]


def dump_split_dags() -> str:
    lines = []
    for profile_name, profile in (("GROUP1", GROUP1), ("GROUP2", GROUP2)):
        for seed, utilization in PAIRS:
            taskset = generate_taskset(default_rng(seed), utilization, profile)
            for task in taskset:
                for threshold in THRESHOLDS:
                    for overhead in OVERHEADS:
                        lines.append(
                            f"split {profile_name} {seed} {utilization} {task.name} "
                            f"{threshold} {overhead}"
                        )
                        lines.extend(
                            _dump_dag(split_all_nodes(task.graph, threshold, overhead))
                        )
    return "\n".join(lines) + "\n"


def test_split_dags_match_the_recorded_digest():
    digest = hashlib.sha256(dump_split_dags().encode()).hexdigest()
    assert digest == SPLIT_DAGS_SHA256


def _splitsweep_csv_digest(tmp_path, *extra) -> str:
    out = tmp_path / "splitsweep.csv"
    assert main([
        "splitsweep", "--m", "4", "--tasksets", "12", "--seed", "2016",
        "--jobs", "1", *extra, "--csv", str(out),
    ]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_splitsweep_csv_matches_the_recorded_digest(tmp_path):
    assert _splitsweep_csv_digest(tmp_path) == SPLITSWEEP_CSV_SHA256


def test_splitsweep_overhead_csv_matches_the_recorded_digest(tmp_path):
    digest = _splitsweep_csv_digest(tmp_path, "--overhead", "0.5")
    assert digest == SPLITSWEEP_OVERHEAD_CSV_SHA256

"""Breakdown-utilisation sensitivity sweeps (registry kind ``sensitivity``).

The paper's schedulability figures answer "what fraction of random
task-sets pass at utilisation U?"; the sensitivity view asks the dual:
"how far can each task-set be pushed before it fails?".  For every
task-set in a generated corpus this experiment binary-searches the
breakdown utilisation (:func:`repro.core.sensitivity.breakdown_utilization`)
under each analysis method — FP-ideal (the interference-only upper
envelope), LP-ILP (the paper's test) and LP-max (its coarse bound) —
plus the mean FP-ideal blocking slack
(:func:`repro.core.sensitivity.blocking_slack`), a diagnostic for how
much lower-priority blocking headroom the corpus carries.

Execution shape: a :class:`~repro.engine.sweep.CorpusSweep` on the one
sweep engine — the corpus is regenerated from the seed in every
invocation, each task-set is one work item producing one four-float
row, and reduction happens in corpus order, so serial == parallel ==
sharded == resumed == merged, bit for bit.  Registered as a
first-class :class:`~repro.engine.jobspec.JobSpec` kind by
:mod:`repro.engine.registry`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.analyzer import AnalysisMethod
from repro.core.sensitivity import blocking_slack, breakdown_utilization
from repro.engine.sweep import CorpusSweep
from repro.generator.profiles import GROUP1, TasksetProfile
from repro.generator.taskset_gen import generate_taskset
from repro.model.taskset import TaskSet

__all__ = [
    "SENSITIVITY_METHODS",
    "SensitivityPoint",
    "SensitivityResult",
    "sensitivity_fingerprint",
    "sensitivity_sweep",
    "reduce_sensitivity",
    "sensitivity_table",
    "write_sensitivity_csv",
]

#: Shard-artifact kind tag of sensitivity sweeps.
KIND_SENSITIVITY = "sensitivity"

#: Analysis methods a sensitivity row covers, in row-column order.
SENSITIVITY_METHODS = (
    AnalysisMethod.FP_IDEAL,
    AnalysisMethod.LP_ILP,
    AnalysisMethod.LP_MAX,
)


@dataclass(frozen=True, slots=True)
class SensitivityPoint:
    """Breakdown-utilisation statistics for one analysis method."""

    method: str
    n_tasksets: int
    mean_breakdown: float
    min_breakdown: float
    max_breakdown: float


@dataclass(frozen=True, slots=True)
class SensitivityResult:
    """One sensitivity sweep: per-method breakdowns plus slack."""

    m: int
    utilization: float
    max_scale: float
    n_tasksets: int
    points: tuple[SensitivityPoint, ...]
    mean_slack: float


def sensitivity_fingerprint(
    m: int,
    utilization: float,
    max_scale: float,
    n_tasksets: int,
    seed: int,
    profile: TasksetProfile,
    methods: tuple[AnalysisMethod, ...] = SENSITIVITY_METHODS,
) -> str:
    """Content fingerprint tying shards to one exact sensitivity sweep."""
    key = (
        "repro.experiments.sensitivity/v1",
        m,
        utilization,
        max_scale,
        n_tasksets,
        seed,
        repr(profile),
        tuple(method.value for method in methods),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _evaluate_sensitivity_item(
    payload: tuple[TaskSet, int, float], cache=None,
) -> list[list[float]]:
    """One work item: a task-set's breakdowns + mean slack (in a worker).

    ``cache`` is unused: the verdict cache keys the grid sweeps'
    multi-method analyses only.
    """
    taskset, m, max_scale = payload
    row = [
        float(breakdown_utilization(taskset, m, method, max_scale=max_scale))
        for method in SENSITIVITY_METHODS
    ]
    slack = blocking_slack(taskset, m)
    # Task insertion order is the corpus's generation order, so this
    # plain float sum is deterministic across executors.
    row.append(sum(slack.values()) / len(slack) if slack else 0.0)
    return [row]


def reduce_sensitivity(artifact) -> SensitivityResult:
    """Corpus-order reduction behind inline runs, merges and exports."""
    rows_in_order = [row for _, (row,) in sorted(artifact.records.items())]
    n_evaluated = len(rows_in_order)
    points = []
    for column, method in enumerate(SENSITIVITY_METHODS):
        total = 0.0
        for row in rows_in_order:
            total += row[column]
        values = [row[column] for row in rows_in_order]
        points.append(SensitivityPoint(
            method=method.value,
            n_tasksets=n_evaluated,
            mean_breakdown=total / n_evaluated if n_evaluated else 0.0,
            min_breakdown=min(values) if values else 0.0,
            max_breakdown=max(values) if values else 0.0,
        ))
    slack_total = 0.0
    for row in rows_in_order:
        slack_total += row[len(SENSITIVITY_METHODS)]
    meta = artifact.meta
    return SensitivityResult(
        m=int(meta["m"]),
        utilization=float(meta["utilization"]),
        max_scale=float(meta["max_scale"]),
        n_tasksets=n_evaluated,
        points=tuple(points),
        mean_slack=slack_total / n_evaluated if n_evaluated else 0.0,
    )


def sensitivity_sweep(workload) -> CorpusSweep:
    """The engine sweep of a ``kind="sensitivity"`` workload: one item
    per task-set of a GROUP1 corpus drawn from ``default_rng(seed)``."""
    m, utilization, max_scale = (
        workload.m, workload.utilization, workload.max_scale
    )
    n_tasksets, seed = workload.n_tasksets, workload.seed

    def corpus() -> list[tuple]:
        rng = np.random.default_rng(seed)
        return [
            (generate_taskset(rng, utilization, GROUP1), m, max_scale)
            for _ in range(n_tasksets)
        ]

    return CorpusSweep(
        kind=KIND_SENSITIVITY,
        digest=sensitivity_fingerprint(
            m, utilization, max_scale, n_tasksets, seed, GROUP1
        ),
        total_items=n_tasksets,
        meta={
            "m": m,
            "utilization": utilization,
            "max_scale": max_scale,
            "n_tasksets": n_tasksets,
            "seed": seed,
            "methods": [method.value for method in SENSITIVITY_METHODS],
        },
        evaluate=_evaluate_sensitivity_item,
        corpus=corpus,
    )


def sensitivity_table(result: SensitivityResult, shard_note: str = "") -> str:
    """ASCII rendering for the CLI."""
    from repro.experiments.reporting import format_table

    rows = [
        [point.method, f"{point.mean_breakdown:.4f}",
         f"{point.min_breakdown:.4f}", f"{point.max_breakdown:.4f}"]
        for point in result.points
    ]
    table = format_table(
        ["method", "mean breakdown U", "min", "max"],
        rows,
        title=(f"Breakdown-utilisation sensitivity "
               f"(m={result.m}, U={result.utilization:g}, "
               f"max_scale={result.max_scale:g}, "
               f"{result.n_tasksets} task-sets{shard_note})"),
    )
    return (table + f"\n\nmean FP-ideal blocking slack: "
            f"{result.mean_slack:.2f} time units")


def write_sensitivity_csv(result: SensitivityResult, path) -> Path:
    """One CSV row per analysis method (deterministic formatting)."""
    from repro.experiments.reporting import write_csv

    return write_csv(
        path,
        ["method", "n_tasksets", "mean_breakdown", "min_breakdown",
         "max_breakdown", "mean_slack"],
        [
            [point.method, point.n_tasksets,
             repr(point.mean_breakdown), repr(point.min_breakdown),
             repr(point.max_breakdown), repr(result.mean_slack)]
            for point in result.points
        ],
    )

"""Extension experiment: preemption-point granularity sweep.

Limited preemption interpolates between fully non-preemptive (few,
large NPRs — heavy blocking imposed, few preemptions suffered) and
fully preemptive (many tiny NPRs — no blocking, every release
preempts). This sweep takes group-1 task-sets, re-splits every NPR
above a WCET threshold (:func:`repro.model.transforms.split_all_nodes`)
and measures LP-ILP schedulability as the threshold shrinks — the
system-level view of the preemption-point placement problem (paper
refs [12], [17], [18], and its future-work item (ii)).

Two regimes, matching the paper's framing:

* **overhead-free** (the paper's model): finer NPRs monotonically help
  — Δ shrinks while ``p_k = min(q_k, h_k)`` is already capped by the
  release count ``h_k``, so LP-ILP approaches FP-ideal;
* **with preemption overheads** (``overhead > 0``; the costs the
  paper's introduction motivates): every inserted point inflates WCETs,
  so utilisation grows as NPRs shrink and schedulability becomes
  non-monotone — the placement problem of refs [12], [17], [18].

Execution shape: a :class:`~repro.engine.sweep.CorpusSweep` on the
one sweep engine.  The corpus is regenerated from the seed in every
invocation; each task-set's evaluation across all thresholds is one
work item whose rows are one ``(Σq, task count, utilisation,
schedulable)`` tuple per threshold, and per-threshold aggregates are
reduced in corpus order, so serial == parallel == sharded == resumed ==
merged, bit for bit, float sums included.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.exceptions import AnalysisError, ShardError
from repro.core.analyzer import AnalysisMethod, analyze_taskset
from repro.engine.sweep import CorpusSweep
from repro.generator.profiles import GROUP1, TasksetProfile
from repro.generator.taskset_gen import generate_taskset
from repro.model.taskset import TaskSet
from repro.model.transforms import with_split_nodes
from repro.rng import default_rng


@dataclass(frozen=True, slots=True)
class SplitSweepPoint:
    """Acceptance ratio at one NPR-size threshold."""

    threshold: float
    n_tasksets: int
    schedulable: int
    mean_q: float
    mean_utilization: float

    @property
    def ratio(self) -> float:
        return self.schedulable / self.n_tasksets if self.n_tasksets else 0.0


def split_taskset(
    taskset: TaskSet, threshold: float, overhead: float = 0.0
) -> TaskSet:
    """Split every NPR above ``threshold`` across a whole task-set."""
    if not (threshold > 0) or math.isinf(threshold):
        raise AnalysisError(f"threshold must be positive and finite, got {threshold}")
    return TaskSet(
        [with_split_nodes(task, threshold, overhead=overhead) for task in taskset]
    )


def _evaluate_split_item(
    payload: tuple[TaskSet, int, tuple[float, ...], AnalysisMethod, float],
    cache=None,
) -> list[tuple[int, int, float, bool]]:
    """One task-set across all thresholds (runs in a worker).

    Returns, per threshold, ``(Σq, task count, total utilisation,
    schedulable)`` of the split task-set.  ``cache`` is unused: only
    the grid sweeps' items have the generation coordinates the verdict
    cache keys on.
    """
    taskset, m, thresholds, method, overhead = payload
    rows: list[tuple[int, int, float, bool]] = []
    for threshold in thresholds:
        split = split_taskset(taskset, threshold, overhead=overhead)
        rows.append(
            (
                sum(t.q for t in split),
                len(split),
                split.total_utilization,
                analyze_taskset(split, m, method).schedulable,
            )
        )
    return rows


def split_sweep_fingerprint(
    m: int,
    utilization: float,
    thresholds: tuple[float, ...],
    n_tasksets: int,
    seed: int,
    profile: TasksetProfile,
    method: AnalysisMethod,
    overhead: float,
) -> str:
    """Stable hash identifying one split-sweep configuration."""
    canonical = repr(
        (
            "repro.experiments.splitsweep/v1",
            m,
            utilization,
            tuple(thresholds),
            n_tasksets,
            seed,
            repr(profile),
            method.value,
            overhead,
        )
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def reduce_splitsweep(artifact) -> list[SplitSweepPoint]:
    """Fold a split-sweep artifact's rows, in corpus order, into points.

    The one reduction behind inline runs and shard merges, so both
    sum in the same order and agree bit-for-bit.
    """
    thresholds = tuple(float(t) for t in artifact.meta["thresholds"])
    rows_in_order = [rows for _, rows in sorted(artifact.records.items())]
    if any(len(rows) != len(thresholds) for rows in rows_in_order):
        raise ShardError(
            f"a splitsweep item does not hold one row for each of the "
            f"{len(thresholds)} thresholds; artifact is corrupt"
        )
    n_evaluated = len(rows_in_order)
    points: list[SplitSweepPoint] = []
    for t_index, threshold in enumerate(thresholds):
        good = 0
        total_q = 0
        total_tasks = 0
        total_u = 0.0
        for rows in rows_in_order:
            q, tasks, u, schedulable = rows[t_index]
            total_q += q
            total_tasks += tasks
            total_u += u
            if schedulable:
                good += 1
        points.append(
            SplitSweepPoint(
                threshold=threshold,
                n_tasksets=n_evaluated,
                schedulable=good,
                mean_q=total_q / total_tasks if total_tasks else 0.0,
                mean_utilization=total_u / n_evaluated if n_evaluated else 0.0,
            )
        )
    return points


def splitsweep_job(
    m: int,
    utilization: float = 1.75,
    thresholds: tuple[float, ...] | None = None,
    n_tasksets: int = 30,
    seed: int = 2016,
    overhead: float = 0.0,
    execution=None,
):
    """The declarative :class:`~repro.engine.jobspec.JobSpec` of one
    split-sweep run — what the CLI subcommand and ``sweep-run`` job
    files both build.  The job form fixes the paper's
    GROUP1 corpus and LP-ILP analysis."""
    from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload

    return JobSpec(
        workload=Workload(
            kind="splitsweep", m=m, utilization=utilization,
            thresholds=(
                tuple(float(t) for t in thresholds)
                if thresholds is not None else None
            ),
            n_tasksets=n_tasksets, seed=seed, overhead=overhead,
        ),
        execution=execution if execution is not None else ExecutionPolicy(),
    )


def splitsweep_sweep(workload) -> CorpusSweep:
    """The engine sweep of a ``kind="splitsweep"`` workload.

    One item per task-set of a GROUP1 corpus drawn from
    ``default_rng(seed)``; the same task-sets are re-analysed at every
    threshold, so points are directly comparable.
    """
    m, thresholds, overhead = workload.m, workload.thresholds, workload.overhead
    method = AnalysisMethod.LP_ILP

    def corpus() -> list[tuple]:
        rng = default_rng(workload.seed)
        return [
            (generate_taskset(rng, workload.utilization, GROUP1),
             m, thresholds, method, overhead)
            for _ in range(workload.n_tasksets)
        ]

    return CorpusSweep(
        kind="splitsweep",
        digest=split_sweep_fingerprint(
            m, workload.utilization, thresholds, workload.n_tasksets,
            workload.seed, GROUP1, method, overhead,
        ),
        total_items=workload.n_tasksets,
        meta={
            "m": m,
            "utilization": workload.utilization,
            "thresholds": list(thresholds),
            "n_tasksets": workload.n_tasksets,
            "seed": workload.seed,
            "overhead": overhead,
            "method": method.value,
        },
        evaluate=_evaluate_split_item,
        corpus=corpus,
    )

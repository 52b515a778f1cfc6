"""Analysis-vs-simulation validation sweeps (registry kind ``simulate``).

The response-time analysis is *sound* if no execution it admits ever
misses a deadline and every observed response time stays under the
analytic bound.  This experiment checks that claim corpus-wide: each
generated task-set is analysed with LP-ILP and then run through the
discrete-event simulator (:mod:`repro.sim`) under the synchronous
periodic arrival pattern (the classic worst-case candidate) for
``horizon_factor`` times its largest period.

Per task-set the row records: the analysis verdict, the observed
deadline misses, the worst observed-response / analytic-bound ratio
over the tasks the analysis bounded, and a soundness flag — ``True``
when an *analytically schedulable* task-set missed a deadline or
overran a bound (which would falsify the analysis).  The merged result
counts verdicts and violations; ``violations == 0`` is the validation.

Execution shape: a :class:`~repro.engine.sweep.CorpusSweep` on the one
sweep engine (corpus regenerated from the seed, one item per task-set,
corpus-order reduction), registered as a first-class JobSpec kind by
:mod:`repro.engine.registry` — shardable, resumable, orchestratable,
daemon-dispatchable, bit-identical across all of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.analyzer import AnalysisMethod, analyze_taskset
from repro.engine.sweep import CorpusSweep
from repro.generator.profiles import GROUP1, TasksetProfile
from repro.generator.taskset_gen import generate_taskset
from repro.model.taskset import TaskSet
from repro.rng import default_rng
from repro.sim import simulate, synchronous_periodic_releases

__all__ = [
    "SimulationValidation",
    "simulation_fingerprint",
    "simulation_sweep",
    "reduce_simulation",
    "simulation_table",
    "write_simulation_csv",
]

#: Shard-artifact kind tag of simulation-validation sweeps.
KIND_SIMULATE = "simulate"

#: The analysis method being validated.
SIMULATE_METHOD = AnalysisMethod.LP_ILP


@dataclass(frozen=True, slots=True)
class SimulationValidation:
    """Corpus-level analysis-vs-simulation comparison."""

    m: int
    utilization: float
    horizon_factor: float
    n_tasksets: int
    #: Task-sets LP-ILP deems schedulable.
    analyzed_schedulable: int
    #: Task-sets with >= 1 observed deadline miss (any verdict).
    missed_tasksets: int
    #: Analytically-schedulable task-sets that missed a deadline or
    #: overran an analytic bound — non-zero falsifies the analysis.
    violations: int
    #: Worst observed-response / analytic-bound ratio over schedulable
    #: task-sets (soundness implies <= 1.0).
    max_response_ratio: float


def simulation_fingerprint(
    m: int,
    utilization: float,
    horizon_factor: float,
    n_tasksets: int,
    seed: int,
    profile: TasksetProfile,
    method: AnalysisMethod = SIMULATE_METHOD,
) -> str:
    """Content fingerprint tying shards to one exact validation sweep."""
    key = (
        "repro.experiments.simulate/v1",
        m,
        utilization,
        horizon_factor,
        n_tasksets,
        seed,
        repr(profile),
        method.value,
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _evaluate_simulate_item(
    payload: tuple[TaskSet, int, float], cache=None,
) -> list[list]:
    """One work item: analyse + simulate one task-set (in a worker).

    ``cache`` is unused: only the grid sweeps' items have the
    generation coordinates the verdict cache keys on.
    """
    taskset, m, horizon_factor = payload
    verdict = analyze_taskset(taskset, m, SIMULATE_METHOD)
    horizon = horizon_factor * max(task.period for task in taskset)
    sim = simulate(taskset, m, synchronous_periodic_releases(taskset, horizon))
    misses = int(sim.deadline_misses)
    max_ratio = 0.0
    violation = False
    if verdict.schedulable:
        if misses:
            violation = True
        for name, stats in sorted(sim.task_stats().items()):
            bound = verdict.task(name)
            if bound.bounded and bound.response > 0:
                max_ratio = max(max_ratio, stats.max_response / bound.response)
                if stats.max_response > bound.response:
                    violation = True
    return [[bool(verdict.schedulable), misses, float(max_ratio), violation]]


def reduce_simulation(artifact) -> SimulationValidation:
    """Corpus-order reduction behind inline runs, merges and exports."""
    schedulable = 0
    missed = 0
    violations = 0
    max_ratio = 0.0
    n_evaluated = 0
    for _, (row,) in sorted(artifact.records.items()):
        verdict, misses, ratio, violation = row
        schedulable += bool(verdict)
        missed += bool(misses)
        violations += bool(violation)
        max_ratio = max(max_ratio, ratio)
        n_evaluated += 1
    meta = artifact.meta
    return SimulationValidation(
        m=int(meta["m"]),
        utilization=float(meta["utilization"]),
        horizon_factor=float(meta["horizon_factor"]),
        n_tasksets=n_evaluated,
        analyzed_schedulable=schedulable,
        missed_tasksets=missed,
        violations=violations,
        max_response_ratio=max_ratio,
    )


def simulation_sweep(workload) -> CorpusSweep:
    """The engine sweep of a ``kind="simulate"`` workload: one item per
    task-set of a GROUP1 corpus drawn from ``default_rng(seed)``."""
    m, utilization, horizon_factor = (
        workload.m, workload.utilization, workload.horizon_factor
    )
    n_tasksets, seed = workload.n_tasksets, workload.seed

    def corpus() -> list[tuple]:
        rng = default_rng(seed)
        return [
            (generate_taskset(rng, utilization, GROUP1), m, horizon_factor)
            for _ in range(n_tasksets)
        ]

    return CorpusSweep(
        kind=KIND_SIMULATE,
        digest=simulation_fingerprint(
            m, utilization, horizon_factor, n_tasksets, seed, GROUP1
        ),
        total_items=n_tasksets,
        meta={
            "m": m,
            "utilization": utilization,
            "horizon_factor": horizon_factor,
            "n_tasksets": n_tasksets,
            "seed": seed,
            "method": SIMULATE_METHOD.value,
        },
        evaluate=_evaluate_simulate_item,
        corpus=corpus,
    )


def simulation_table(result: SimulationValidation, shard_note: str = "") -> str:
    """ASCII rendering for the CLI."""
    from repro.experiments.reporting import format_table

    table = format_table(
        ["task-sets", "LP-ILP schedulable", "with misses",
         "violations", "max observed/bound"],
        [[result.n_tasksets, result.analyzed_schedulable,
          result.missed_tasksets, result.violations,
          f"{result.max_response_ratio:.3f}"]],
        title=(f"Analysis-vs-simulation validation "
               f"(m={result.m}, U={result.utilization:g}, "
               f"horizon={result.horizon_factor:g}x max period"
               f"{shard_note})"),
    )
    verdict = (
        "analysis sound on this corpus: no admitted task-set missed a "
        "deadline or overran its bound"
        if result.violations == 0
        else f"ANALYSIS FALSIFIED: {result.violations} admitted task-set(s) "
        "missed a deadline or overran a bound"
    )
    return table + "\n\n" + verdict


def write_simulation_csv(result: SimulationValidation, path) -> Path:
    """Single-row CSV (deterministic formatting)."""
    from repro.experiments.reporting import write_csv

    return write_csv(
        path,
        ["n_tasksets", "analyzed_schedulable", "missed_tasksets",
         "violations", "max_response_ratio"],
        [[result.n_tasksets, result.analyzed_schedulable,
          result.missed_tasksets, result.violations,
          repr(result.max_response_ratio)]],
    )

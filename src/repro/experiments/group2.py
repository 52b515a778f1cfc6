"""The second task-set group: LP-max ≈ LP-ILP under uniform parallelism.

Section VI-B (results "not shown due to space constraints" in the
paper): when every task is highly parallel, many NPRs per task can
legally run in parallel, so LP-max's ignorance of precedence costs
little and the two blocking bounds nearly coincide. This experiment
regenerates that claim and quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import DEFAULT_METHODS, SweepResult, SweepSpec
from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload
from repro.experiments.figure2 import utilization_grid
from repro.generator.profiles import GROUP2


@dataclass(frozen=True, slots=True)
class Group2Report:
    """Sweep plus the LP-max / LP-ILP agreement summary."""

    sweep: SweepResult
    max_gap: float
    mean_gap: float

    @property
    def methods_agree(self) -> bool:
        """True when the largest ratio gap stays within 10 points."""
        return self.max_gap <= 0.10


def group2_spec(
    m: int,
    n_tasksets: int = 300,
    seed: int = 2016,
    step: float | None = None,
) -> SweepSpec:
    """The exact :class:`~repro.engine.SweepSpec` one group-2 run uses.

    Every ``kind="group2"`` job runs it, so its shard invocations are
    fingerprint-validated against the same identity.
    """
    return SweepSpec(
        m=m,
        utilizations=tuple(utilization_grid(m, step=step)),
        n_tasksets=n_tasksets,
        profile=GROUP2,
        seed=seed,
        methods=DEFAULT_METHODS,
        label=f"group2-m{m}",
    )


def group2_job(
    m: int,
    n_tasksets: int = 300,
    seed: int = 2016,
    step: float | None = None,
    execution: ExecutionPolicy | None = None,
) -> JobSpec:
    """The declarative :class:`~repro.engine.jobspec.JobSpec` of one
    group-2 run."""
    return JobSpec(
        workload=Workload(
            kind="group2", m=m, n_tasksets=n_tasksets, seed=seed, step=step,
        ),
        execution=execution if execution is not None else ExecutionPolicy(),
    )


def summarize_group2(sweep: SweepResult) -> Group2Report:
    """Fold a group-2 sweep into its LP-max vs LP-ILP gap summary."""
    gaps = [
        abs(point.ratio("LP-ILP") - point.ratio("LP-max")) for point in sweep.points
    ]
    return Group2Report(
        sweep=sweep,
        max_gap=max(gaps),
        mean_gap=sum(gaps) / len(gaps),
    )

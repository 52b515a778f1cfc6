"""Figure 2: schedulability ratio vs utilisation for m = 4, 8, 16.

The paper's main evaluation (Section VI-B): group-1 task-sets (mixed
parallelism), 300 task-sets per utilisation point, three analyses
(FP-ideal, LP-ILP, LP-max). Sub-figures (a)/(b)/(c) differ only in the
core count and utilisation range.

Expected shape (the reproduction target):

* ordering ``LP-max <= LP-ILP <= FP-ideal`` at every point;
* LP-max collapses much earlier than LP-ILP (paper: at U = 2.25 on
  m = 4 the ratios are 11% / 59% / 95%);
* the LP-ILP-to-FP-ideal gap widens slightly as m grows.

Note Figure 2(c)'s x-axis is labelled "Number of tasks" in the paper;
the surrounding text discusses it as the same utilisation sweep as
(a)/(b), which is what we reproduce (see DESIGN.md).
"""

from __future__ import annotations

from repro.exceptions import AnalysisError
from repro.core.blocking import RhoSolver
from repro.core.workload import MuMethod
from repro.engine import DEFAULT_METHODS, SweepResult, SweepSpec
from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload
from repro.generator.profiles import GROUP1

#: Core counts of sub-figures (a), (b), (c).
FIGURE2_CORE_COUNTS = (4, 8, 16)

#: Task-sets per utilisation point in the paper.
PAPER_TASKSETS_PER_POINT = 300

#: Default root seed (the paper's publication year, for what it's worth).
DEFAULT_SEED = 2016


def utilization_grid(m: int, step: float | None = None, start: float = 1.0) -> list[float]:
    """The x-axis of Figure 2: ``start .. m`` in steps of ``step``.

    The default step scales with ``m`` (0.25 for m=4, 0.5 for m=8, 1.0
    for m=16) matching the resolution visible in the paper's plots.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    if step is None:
        step = m / 16.0
    if step <= 0:
        raise AnalysisError(f"step must be > 0, got {step}")
    grid: list[float] = []
    u = start
    while u <= m + 1e-9:
        grid.append(round(u, 6))
        u += step
    return grid


def figure2_spec(
    m: int,
    n_tasksets: int = PAPER_TASKSETS_PER_POINT,
    seed: int = DEFAULT_SEED,
    step: float | None = None,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
) -> SweepSpec:
    """The exact :class:`~repro.engine.SweepSpec` one Figure-2 run uses.

    The single source of the sweep's identity: a ``kind="figure2"``
    job executes it, and the orchestrator uses its fingerprint and item
    count to dispatch and validate shard invocations without running
    anything locally.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    return SweepSpec(
        m=m,
        utilizations=tuple(utilization_grid(m, step=step)),
        n_tasksets=n_tasksets,
        profile=GROUP1,
        seed=seed,
        methods=DEFAULT_METHODS,
        label=f"figure2-m{m}-group1",
        mu_method=mu_method,
        rho_solver=rho_solver,
    )


def figure2_job(
    m: int,
    n_tasksets: int = PAPER_TASKSETS_PER_POINT,
    seed: int = DEFAULT_SEED,
    step: float | None = None,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
    execution: ExecutionPolicy | None = None,
) -> JobSpec:
    """The declarative :class:`~repro.engine.jobspec.JobSpec` of one
    Figure-2 run — what the CLI subcommand, ``sweep-run`` job files and
    the orchestrator all build."""
    return JobSpec(
        workload=Workload(
            kind="figure2", m=m, n_tasksets=n_tasksets, seed=seed,
            step=step, mu_method=mu_method, rho_solver=rho_solver,
        ),
        execution=execution if execution is not None else ExecutionPolicy(),
    )


def check_figure2_shape(result: SweepResult, tolerance: float = 0.05) -> list[str]:
    """Verify the qualitative claims of Figure 2 on a sweep result.

    Returns a list of violations (empty = shape reproduced):

    * at every utilisation, ``LP-max <= LP-ILP <= FP-ideal`` within
      ``tolerance`` (sampling noise allowance);
    * each method is monotonically non-increasing in U within
      ``2 * tolerance``.
    """
    violations: list[str] = []
    fp, ilp, lpmax = "FP-ideal", "LP-ILP", "LP-max"
    for point in result.points:
        if point.ratio(lpmax) > point.ratio(ilp) + tolerance:
            violations.append(
                f"U={point.utilization}: LP-max ratio {point.ratio(lpmax):.2f} "
                f"exceeds LP-ILP {point.ratio(ilp):.2f}"
            )
        if point.ratio(ilp) > point.ratio(fp) + tolerance:
            violations.append(
                f"U={point.utilization}: LP-ILP ratio {point.ratio(ilp):.2f} "
                f"exceeds FP-ideal {point.ratio(fp):.2f}"
            )
    for method in result.methods:
        series = result.series(method)
        for (u1, p1), (u2, p2) in zip(series, series[1:]):
            if p2 > p1 + 200.0 * tolerance:
                violations.append(
                    f"{method}: ratio increases from {p1:.0f}% at U={u1} "
                    f"to {p2:.0f}% at U={u2}"
                )
    return violations

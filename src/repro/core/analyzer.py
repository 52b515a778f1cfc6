"""One-call schedulability analysis of a DAG task-set.

Wires together the blocking bounds, the interference terms and the RTA
fixpoint into the three analyses the paper evaluates (Section VI):

* ``FP-ideal`` — Eq. 1, lower-priority interference discarded;
* ``LP-max``  — Eq. 4 with Δ from Eq. 5;
* ``LP-ILP``  — Eq. 4 with Δ from Eq. 8.

:func:`analyze_taskset` runs one method; :func:`analyze_taskset_multi`
evaluates several methods in a single pass, sharing the validation, the
interference memo and the LP-ILP μ cache and (by default) exploiting
the dominance ordering ``LP-max ⊆ LP-ILP ⊆ FP-ideal`` to skip analyses
whose verdict is already decided.  Both run every fixpoint through the
one kernel, :func:`~repro.core.rta.response_time_bounds`; the sweep
engine calls :func:`analyze_taskset_multi` once per work item.

Example
-------
The lower-priority tasks of the paper's Figure 1, on ``m = 4`` cores;
the first suffers the paper's LP-ILP ``Δ⁴ = 19``:

>>> from repro import TaskSet, analyze_taskset, AnalysisMethod
>>> from repro.experiments.figure1 import figure1_lp_tasks
>>> taskset = TaskSet(figure1_lp_tasks())
>>> result = analyze_taskset(taskset, m=4, method=AnalysisMethod.LP_ILP)
>>> result.schedulable, result.tasks[0].delta_m
(True, 19.0)
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

from repro.exceptions import AnalysisError
from repro.core.blocking import RhoSolver, lp_ilp_deltas, lp_max_deltas
from repro.core.interference import InterferenceMemo
from repro.core.results import MultiAnalysis, TaskAnalysis, TasksetAnalysis
from repro.core.rta import response_time_bounds
from repro.core.workload import MuMethod
from repro.model.taskset import TaskSet
from repro.model.validation import validate_taskset_for_analysis


class AnalysisMethod(Enum):
    """The three analyses compared in the paper's evaluation."""

    FP_IDEAL = "FP-ideal"
    LP_MAX = "LP-max"
    LP_ILP = "LP-ILP"


def _coerce_method(method: AnalysisMethod | str) -> AnalysisMethod:
    if isinstance(method, AnalysisMethod):
        return method
    try:
        return AnalysisMethod(method)
    except ValueError:
        valid = [m.value for m in AnalysisMethod]
        raise AnalysisError(f"unknown method {method!r}; choose from {valid}") from None


def _analyze_validated(
    taskset: TaskSet,
    m: int,
    method: AnalysisMethod,
    mu_method: MuMethod,
    rho_solver: RhoSolver,
    mu_cache: dict[str, list[float]],
    memo: InterferenceMemo | None = None,
    warm_starts: dict[str, float] | None = None,
) -> TasksetAnalysis:
    """One method on an already-validated task-set (shared μ cache)."""
    if method is AnalysisMethod.FP_IDEAL:
        tasks = response_time_bounds(taskset, m, memo=memo)
        return TasksetAnalysis(method.value, m, tuple(tasks))

    if method is AnalysisMethod.LP_MAX:
        def provider(task):
            return lp_max_deltas(taskset.lp(task.name), m)
    else:
        def provider(task):
            return lp_ilp_deltas(
                taskset.lp(task.name),
                m,
                mu_method=mu_method,
                rho_solver=rho_solver,
                mu_cache=mu_cache,
            )

    tasks = response_time_bounds(
        taskset,
        m,
        delta_provider=provider,
        limited_preemption=True,
        memo=memo,
        warm_starts=warm_starts,
    )
    return TasksetAnalysis(method.value, m, tuple(tasks))


def analyze_taskset(
    taskset: TaskSet,
    m: int,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
) -> TasksetAnalysis:
    """Analyse ``taskset`` on ``m`` cores with the chosen method.

    Parameters
    ----------
    taskset:
        The DAG task-set (tasks carry unique priorities).
    m:
        Number of identical cores.
    method:
        :class:`AnalysisMethod` member (or its string value).
    mu_method / rho_solver:
        Solver selection for the LP-ILP blocking terms; ignored by the
        other methods. Defaults are the fast exact combinatorial
        solvers; ``"ilp"`` variants run the paper's formulations on the
        built-in branch-and-bound solver.

    Returns
    -------
    TasksetAnalysis
        Per-task response-time bounds and the task-set verdict.
    """
    method = _coerce_method(method)
    validate_taskset_for_analysis(taskset, m)
    return _analyze_validated(taskset, m, method, mu_method, rho_solver, {})


def _pruned_unschedulable(method: AnalysisMethod, taskset: TaskSet, m: int) -> TasksetAnalysis:
    """Verdict derived by dominance: unschedulable, no task analysed."""
    tasks = tuple(
        TaskAnalysis(
            name=task.name,
            schedulable=False,
            response=math.inf,
            iterations=0,
            analyzed=False,
        )
        for task in taskset
    )
    return TasksetAnalysis(method.value, m, tasks)


def analyze_taskset_multi(
    taskset: TaskSet,
    m: int,
    methods: Sequence[AnalysisMethod | str] | None = None,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
    dominance_pruning: bool = True,
) -> MultiAnalysis:
    """Analyse ``taskset`` with several methods in a single pass.

    Compared to calling :func:`analyze_taskset` once per method this

    * validates the task-set once,
    * shares one LP-ILP μ cache across methods, and
    * (with ``dominance_pruning``, the default) exploits the paper's
      dominance ordering ``LP-max ⊆ LP-ILP ⊆ FP-ideal`` of the three
      sufficient tests to skip analyses whose verdict is already
      decided:

      - FP-ideal unschedulable ⟹ both LP methods unschedulable (Eq. 4
        only adds the non-negative ``I^lp_k`` term to Eq. 1, and
        ``W_i(L)`` is non-decreasing in the hp response bounds);
      - LP-max schedulable ⟹ LP-ILP schedulable (Eq. 5 dominates Eq. 8
        pointwise: every execution scenario picks at most ``c_i`` NPRs
        per task, all present in the LP-max pool).

      Pruning preserves every task-set *verdict* exactly but not every
      per-task detail: a pruned-unschedulable method reports all tasks
      with ``analyzed=False``, and an LP-ILP verdict settled by LP-max
      reuses LP-max's response bounds (valid for LP-ILP, since its Δ
      terms are never larger, just not the tightest).  Pass
      ``dominance_pruning=False`` for results bit-identical to separate
      :func:`analyze_taskset` calls.

    Parameters
    ----------
    taskset / m / mu_method / rho_solver:
        As in :func:`analyze_taskset`.
    methods:
        Methods to evaluate (members or string values); duplicates are
        dropped.  ``None`` runs all three.
    dominance_pruning:
        Skip analyses whose verdict follows from a dominating method.
        The pruned path also warm-starts the LP fixpoints from the
        FP-ideal converged responses (sound lower bounds: Eq. 4 only
        adds non-negative terms to Eq. 1), which preserves every
        response bound and verdict bit-for-bit and shrinks only the
        diagnostic ``iterations``/``preemptions`` counters of the LP
        results — the same class of detail pruning itself already
        substitutes.

    Returns
    -------
    MultiAnalysis
        One :class:`TasksetAnalysis` per requested method, in request
        order.
    """
    if methods is None:
        methods = tuple(AnalysisMethod)
    wanted: list[AnalysisMethod] = []
    for method in methods:
        coerced = _coerce_method(method)
        if coerced not in wanted:
            wanted.append(coerced)
    if not wanted:
        raise AnalysisError("need at least one analysis method")
    validate_taskset_for_analysis(taskset, m)

    mu_cache: dict[str, list[float]] = {}
    computed: dict[AnalysisMethod, TasksetAnalysis] = {}
    memo = InterferenceMemo(taskset, m)

    def run(
        method: AnalysisMethod, warm_starts: dict[str, float] | None = None
    ) -> TasksetAnalysis:
        result = _analyze_validated(
            taskset, m, method, mu_method, rho_solver, mu_cache, memo, warm_starts
        )
        computed[method] = result
        return result

    if not dominance_pruning:
        for method in wanted:
            run(method)
    else:
        # FP-ideal is the cheapest and the most permissive test: run it
        # first (even when not requested) — its failure decides all.
        lp_wanted = [mm for mm in wanted if mm is not AnalysisMethod.FP_IDEAL]
        fp = run(AnalysisMethod.FP_IDEAL)
        if lp_wanted and not fp.schedulable:
            for method in lp_wanted:
                computed[method] = _pruned_unschedulable(method, taskset, m)
        elif lp_wanted:
            # The converged FP-ideal responses are sound lower bounds on
            # the LP fixpoints (Eq. 4 ⊇ Eq. 1): warm-start both.
            warm = {t.name: t.response for t in fp.tasks if t.schedulable}
            # LP-max is cheap (no μ / scenario machinery); when LP-ILP
            # is wanted it doubles as a pre-filter for the expensive
            # Eq. 8 path, so compute it either way.
            lp_max = run(AnalysisMethod.LP_MAX, warm)
            if AnalysisMethod.LP_ILP in lp_wanted:
                if lp_max.schedulable:
                    computed[AnalysisMethod.LP_ILP] = TasksetAnalysis(
                        AnalysisMethod.LP_ILP.value, m, lp_max.tasks
                    )
                else:
                    run(AnalysisMethod.LP_ILP, warm)

    return MultiAnalysis(m=m, analyses=tuple(computed[mm] for mm in wanted))


def is_schedulable(
    taskset: TaskSet,
    m: int,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
    **kwargs,
) -> bool:
    """Boolean shortcut for :func:`analyze_taskset`."""
    return analyze_taskset(taskset, m, method, **kwargs).schedulable

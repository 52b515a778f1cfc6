"""Response-time fixpoint iteration (paper Eqs. 1 and 4).

For each task, in decreasing priority order:

    R_k ← L_k + (vol(G_k) − L_k)/m + floor((I^lp_k + I^hp_k)/m)

with ``I^lp_k = 0`` for the fully-preemptive ideal analysis (Eq. 1) and
``I^lp_k = Δ^m_k + p_k(R_k)·Δ^{m−1}_k`` for limited preemption (Eq. 4).
The iteration starts from ``L_k + (vol(G_k) − L_k)/m`` (the
interference-free bound) and is monotonically non-decreasing, because
``W_i``, ``h_k`` and hence both interference terms are non-decreasing in
the window length. It stops at a fixpoint, or is abandoned as
unschedulable as soon as the estimate exceeds ``D_k``.

Hot path
--------
:func:`response_time_bounds` is the one fixpoint kernel: every analysis
(single method, multi-method, sweep item) runs through it, one task-set
at a time.  The interference terms are evaluated through an
:class:`~repro.core.interference.InterferenceMemo` — precomputed
per-task constants and a cross-iteration/cross-method ``W_i`` memo —
instead of the reference functions in :mod:`repro.core.interference`.
The memo reproduces the reference float-for-float (asserted by the
property suite), so results are bit-identical to the seed kernel.

``warm_starts`` lets a caller seed the fixpoint of a task with a known
*lower bound* on its response (e.g. the converged FP-ideal response when
analysing the LP methods: Eq. 4 only adds the non-negative ``I^lp_k``
term, so the FP-ideal fixpoint can never exceed the LP one).  Starting
the monotone iteration anywhere between the base window and the least
fixpoint converges to the *same* least fixpoint — only the informational
``iterations`` counter shrinks.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from repro.exceptions import AnalysisError
from repro.core.interference import InterferenceMemo, lower_priority_interference
from repro.core.results import TaskAnalysis
from repro.model.task import DAGTask
from repro.model.taskset import TaskSet

#: Fixpoint detection tolerance (absolute + relative) for float windows.
_FIXPOINT_TOL = 1e-9

#: Hard cap on fixpoint iterations; hitting it indicates pathological
#: parameters and raises rather than looping forever.
_MAX_ITERATIONS = 100_000

#: Signature of the blocking-term provider: task → (Δ^m, Δ^{m−1}).
DeltaProvider = Callable[[DAGTask], tuple[float, float]]


def _no_blocking(_: DAGTask) -> tuple[float, float]:
    return 0.0, 0.0


def response_time_bounds(
    taskset: TaskSet,
    m: int,
    delta_provider: DeltaProvider | None = None,
    limited_preemption: bool = False,
    *,
    warm_starts: Mapping[str, float] | None = None,
    memo: InterferenceMemo | None = None,
) -> list[TaskAnalysis]:
    """Run the RTA over a whole task-set.

    Parameters
    ----------
    taskset:
        The task-set (priority-ordered by construction).
    m:
        Number of identical cores.
    delta_provider:
        Callable mapping each task to its ``(Δ^m_k, Δ^{m−1}_k)`` pair.
        ``None`` (with ``limited_preemption=False``) analyses the
        FP-ideal case of Eq. 1.
    limited_preemption:
        When True, Eq. 4 is used: the lower-priority interference
        ``Δ^m + p_k·Δ^{m−1}`` enters the fixpoint with ``p_k``
        re-evaluated at the current window.
    warm_starts:
        Optional per-task-name lower bounds on the converged response
        (see module docstring); the fixpoint starts at
        ``max(base, warm_start)``.  Affects only the ``iterations``
        counter, never the response.
    memo:
        Optional shared :class:`InterferenceMemo`; one is created when
        absent.  The multi-method analyzer passes a single memo so
        ``W_i``/``h_k`` evaluations are reused across methods.

    Returns
    -------
    list of TaskAnalysis
        One entry per task in priority order. Once a task is deemed
        unschedulable, lower-priority tasks are reported with
        ``analyzed=False`` (their ``W_i`` inputs are unavailable), and
        the task-set as a whole is unschedulable.

    Raises
    ------
    AnalysisError
        On invalid ``m`` or a missing delta provider in LP mode.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    if limited_preemption and delta_provider is None:
        raise AnalysisError("limited_preemption=True requires a delta_provider")
    provider = delta_provider or _no_blocking
    if memo is None:
        memo = InterferenceMemo(taskset, m)

    results: list[TaskAnalysis] = []
    responses: list[float] = []
    failed = False
    for rank, task in enumerate(taskset):
        if failed:
            results.append(
                TaskAnalysis(
                    name=task.name,
                    schedulable=False,
                    response=math.inf,
                    iterations=0,
                    analyzed=False,
                )
            )
            continue
        delta_m, delta_m1 = provider(task) if limited_preemption else (0.0, 0.0)
        warm = warm_starts.get(task.name) if warm_starts else None
        analysis = _fixpoint(
            task, rank, m, responses, delta_m, delta_m1, limited_preemption, memo, warm
        )
        results.append(analysis)
        if analysis.schedulable:
            responses.append(analysis.response)
        else:
            failed = True
    return results


def _fixpoint(
    task: DAGTask,
    rank: int,
    m: int,
    responses: list[float],
    delta_m: float,
    delta_m1: float,
    limited_preemption: bool,
    memo: InterferenceMemo,
    warm_start: float | None,
) -> TaskAnalysis:
    base = task.longest_path + (task.volume - task.longest_path) / m
    window = base
    if warm_start is not None and warm_start > base:
        window = warm_start
    deadline = task.deadline
    preemptions = 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        interference = memo.interference(rank, window, responses)
        if limited_preemption:
            preemptions = memo.preemptions(rank, window)
            interference += lower_priority_interference(delta_m, delta_m1, preemptions)
        candidate = base + math.floor(interference / m)
        if candidate > deadline:
            return TaskAnalysis(
                name=task.name,
                schedulable=False,
                response=math.inf,
                iterations=iteration,
                delta_m=delta_m,
                delta_m_minus_1=delta_m1,
                preemptions=preemptions,
            )
        if abs(candidate - window) <= _FIXPOINT_TOL * max(1.0, abs(window)):
            return TaskAnalysis(
                name=task.name,
                schedulable=True,
                response=candidate,
                iterations=iteration,
                delta_m=delta_m,
                delta_m_minus_1=delta_m1,
                preemptions=preemptions,
            )
        if candidate < window:  # pragma: no cover - monotonicity guard
            raise AnalysisError(
                f"task {task.name!r}: response-time iteration decreased "
                f"({window} -> {candidate}); this is a bug"
            )
        window = candidate
    raise AnalysisError(
        f"task {task.name!r}: fixpoint did not converge within "
        f"{_MAX_ITERATIONS} iterations"
    )

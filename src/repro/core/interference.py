"""Inter-task interference terms: ``W_i(L)``, ``I^hp_k``, ``I^lp_k``.

Higher-priority interference follows Melani et al. (ECRTS 2015) [10],
the analysis the paper builds on (its Eq. 2). The workload of an
interfering DAG task ``τ_i`` in a window of length ``L`` is bounded by
sliding the window to the scenario where the carry-in job finishes as
late as possible (its response-time bound ``R_i``) while executing
densely on all ``m`` cores:

    W_i(L) = floor(L' / T_i) · vol(G_i)
             + min(vol(G_i), m · (L' mod T_i)),
    where L' = L + R_i − vol(G_i)/m

The ``floor`` term counts whole interfering jobs, each contributing its
full volume; the ``min`` term bounds the residual job by both its volume
and the maximal dense execution ``m · remainder``.

Lower-priority interference is the paper's Eq. 3 (from Thekkilakattil et
al., RTNS 2015 [15]): ``I^lp_k = Δ^m_k + p_k · Δ^{m−1}_k``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.exceptions import AnalysisError
from repro.core.preemptions import _safe_ceil
from repro.model.task import DAGTask
from repro.model.taskset import TaskSet


def workload_bound(task: DAGTask, window: float, m: int, response: float) -> float:
    """``W_i(L)``: workload of interfering task ``τ_i`` in a window ``L``.

    Parameters
    ----------
    task:
        The interfering (higher-priority) task ``τ_i``.
    window:
        Window length ``L`` (≥ 0).
    m:
        Core count.
    response:
        ``R_i`` — a response-time upper bound of ``τ_i``; must have been
        computed before (tasks are analysed in priority order).

    Returns
    -------
    float
        An upper bound on the execution performed by jobs of ``τ_i``
        inside the window.
    """
    if window < 0:
        raise AnalysisError(f"window must be >= 0, got {window}")
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    if response < 0:
        raise AnalysisError(f"response bound must be >= 0, got {response}")
    vol = task.volume
    shifted = window + response - vol / m
    if shifted <= 0:
        return 0.0
    whole_jobs = int(shifted // task.period)
    remainder = shifted - whole_jobs * task.period
    return whole_jobs * vol + min(vol, m * remainder)


def higher_priority_interference(
    hp_tasks: Sequence[DAGTask],
    window: float,
    m: int,
    responses: Mapping[str, float],
) -> float:
    """``I^hp_k = Σ_{τ_i ∈ hp(k)} W_i(L)`` (paper Eq. 2).

    Parameters
    ----------
    hp_tasks:
        Tasks in ``hp(k)`` (may be empty — the highest-priority task).
    window:
        The window ``L`` (the current response-time estimate of τ_k).
    m:
        Core count.
    responses:
        Already-computed response-time bounds, keyed by task name.

    Raises
    ------
    AnalysisError
        If some higher-priority task has no recorded response bound.
    """
    total = 0.0
    for task in hp_tasks:
        if task.name not in responses:
            raise AnalysisError(
                f"response bound of higher-priority task {task.name!r} "
                "is not available; analyse tasks in priority order"
            )
        total += workload_bound(task, window, m, responses[task.name])
    return total


class InterferenceMemo:
    """Per-analysis accelerator for ``I^hp_k`` and ``p_k``.

    One instance is built per analysed task-set (and shared across the
    methods of a multi-method pass).  It precomputes the per-task
    constants the fixpoint re-derives on every iteration (``vol``,
    ``vol/m``, ``T``, ``q``) and memoises

    * ``W_i`` keyed by ``(rank, window, R_i)`` — the response bound is
      part of the key, so entries are shared across methods exactly when
      they are reusable (identical hp response) and never go stale;
    * ``h_k`` keyed by ``(hp-count, window)`` — release counts depend
      only on the hp periods, so they are shared across methods
      unconditionally.

    ``W_i`` is evaluated with the same float operations as
    :func:`workload_bound` and summed in priority order, so every total
    equals :func:`higher_priority_interference` bit for bit — asserted
    by the property suite.
    """

    __slots__ = (
        "m",
        "_vols",
        "_offsets",
        "_periods",
        "_qs",
        "_w_memo",
        "_h_memo",
    )

    def __init__(self, taskset: TaskSet, m: int) -> None:
        if m < 1:
            raise AnalysisError(f"core count m must be >= 1, got {m}")
        tasks = taskset.tasks
        self.m = m
        self._vols = [t.volume for t in tasks]
        self._offsets = [t.volume / m for t in tasks]
        self._periods = [t.period for t in tasks]
        self._qs = [t.q for t in tasks]
        self._w_memo: dict[tuple[int, float, float], float] = {}
        self._h_memo: dict[tuple[int, float], int] = {}

    def interference(self, count: int, window: float, responses: Sequence[float]) -> float:
        """``I^hp_k`` over the first ``count`` tasks (the hp prefix).

        ``responses`` holds the already-computed response bounds of
        those tasks, indexed by priority rank.
        """
        total = 0.0
        memo = self._w_memo
        m = self.m
        vols = self._vols
        offsets = self._offsets
        periods = self._periods
        for i in range(count):
            response = responses[i]
            key = (i, window, response)
            w = memo.get(key)
            if w is None:
                shifted = window + response - offsets[i]
                if shifted <= 0:
                    w = 0.0
                else:
                    vol = vols[i]
                    whole_jobs = int(shifted // periods[i])
                    remainder = shifted - whole_jobs * periods[i]
                    dense = m * remainder
                    w = whole_jobs * vol + (vol if vol <= dense else dense)
                memo[key] = w
            total += w
        return total

    def preemptions(self, rank: int, window: float) -> int:
        """``p_k = min(q_k, h_k(window))`` for the task at ``rank``."""
        count = rank
        key = (count, window)
        releases = self._h_memo.get(key)
        if releases is None:
            if window == 0:
                releases = 0
            else:
                releases = 0
                periods = self._periods
                for i in range(count):
                    ceiling = _safe_ceil(window / periods[i])
                    if ceiling > 0:
                        releases += ceiling
            self._h_memo[key] = releases
        q = self._qs[rank]
        return q if q <= releases else releases


def lower_priority_interference(
    delta_m: float,
    delta_m_minus_1: float,
    preemptions: int,
) -> float:
    """``I^lp_k = Δ^m_k + p_k · Δ^{m−1}_k`` (paper Eq. 3)."""
    if delta_m < 0 or delta_m_minus_1 < 0:
        raise AnalysisError("blocking terms must be non-negative")
    if preemptions < 0:
        raise AnalysisError(f"preemption count must be >= 0, got {preemptions}")
    return delta_m + preemptions * delta_m_minus_1

"""Lower-priority blocking terms ``Δ^m_k`` and ``Δ^{m−1}_k``.

Under limited-preemptive global FP, a newly released task ``τ_k`` can
find all ``m`` cores occupied by non-preemptable NPRs of lower-priority
tasks (first blocking, ``Δ^m_k``), and can be blocked again by at most
``m − 1`` lower-priority NPRs at each of its ``p_k`` preemption points
(``Δ^{m−1}_k``). The paper proposes two bounds:

* **LP-max** (Eq. 5) — ignore precedence: take the ``m`` (resp.
  ``m − 1``) largest values among the union of the per-task ``m``
  (resp. ``m − 1``) largest NPR WCETs;
* **LP-ILP** (Eq. 8) — respect precedence: maximise the scenario
  workload ``ρ_k[s_l]`` over all execution scenarios ``s_l ∈ e_m``
  (resp. ``e_{m−1}``).

With non-negative μ the LP-ILP maximum over scenarios equals the best
choice of per-task core counts summing to at most ``m``, a
multiple-choice knapsack. :func:`lp_ilp_deltas` reads both terms off
one table over ``lp(k)``'s μ arrays when every entry is a small
non-negative integer, so the sums are exact and the floats are those of
the scenario path bit for bit; any other input takes the scenario path
(DESIGN.md, "Δ in one table").

On the paper's Figure-1 example with ``m = 4`` these give
``Δ⁴ = 20 vs 19`` and ``Δ³ = 16 vs 15`` (LP-max vs LP-ILP).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Literal

from repro.exceptions import AnalysisError
from repro.core.scenarios import (
    execution_scenarios,
    rho_assignment,
    rho_ilp,
)
from repro.core.workload import MuMethod, mu_array
from repro.model.task import DAGTask

RhoSolver = Literal["assignment", "ilp"]


def lp_max_deltas(lp_tasks: Sequence[DAGTask], m: int) -> tuple[float, float]:
    """``(Δ^m_k, Δ^{m−1}_k)`` by the LP-max bound (paper Eq. 5).

    For each lower-priority task take its ``m`` (resp. ``m − 1``)
    largest NPRs; pool them over all tasks; sum the ``m`` (resp.
    ``m − 1``) largest pooled values.

    Parameters
    ----------
    lp_tasks:
        The tasks in ``lp(k)``; an empty sequence yields ``(0, 0)``
        (the lowest-priority task suffers no lower-priority blocking).
    m:
        Core count (≥ 1).
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    return (
        _lp_max_single(lp_tasks, m),
        _lp_max_single(lp_tasks, m - 1),
    )


def _lp_max_single(lp_tasks: Sequence[DAGTask], count: int) -> float:
    if count == 0 or not lp_tasks:
        return 0.0
    pool: list[float] = []
    for task in lp_tasks:
        pool.extend(task.largest_nprs(count))
    pool.sort(reverse=True)
    return sum(pool[:count])


def lp_ilp_deltas(
    lp_tasks: Sequence[DAGTask],
    m: int,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
    mu_cache: dict[str, list[float]] | None = None,
) -> tuple[float, float]:
    """``(Δ^m_k, Δ^{m−1}_k)`` by the LP-ILP bound (paper Eq. 8).

    Three steps, following Section IV-B:

    1. per task, the worst-case parallel workload ``μ_i[c]`` for
       ``c = 1..m`` (:func:`repro.core.workload.mu_array`);
    2. per execution scenario ``s_l``, the overall worst-case workload
       ``ρ_k[s_l]``;
    3. ``Δ^m_k = max_{s_l ∈ e_m} ρ_k[s_l]`` and likewise over
       ``e_{m−1}``.

    Steps 2 and 3 collapse into one knapsack table when the assignment
    solver runs on small non-negative integer μ (:func:`_knapsack_deltas`);
    the result is the same float.

    Parameters
    ----------
    lp_tasks:
        The tasks in ``lp(k)``; empty yields ``(0, 0)``.
    m:
        Core count (≥ 1).
    mu_method:
        Solver for μ (``"search"``, ``"ilp"``, ``"ilp-paper"``).
    rho_solver:
        ``"assignment"`` (default; sound for every input) or ``"ilp"``
        (the paper's formulation; infeasible scenarios are skipped).
    mu_cache:
        Optional memo of μ arrays keyed by task name — the analyzer
        passes one so μ is computed once per task-set, mirroring the
        paper's observation that μ is a compile-time, per-task artefact.

    Returns
    -------
    tuple of float
        ``(Δ^m_k, Δ^{m−1}_k)``.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    if not lp_tasks:
        return 0.0, 0.0

    mu_by_task: dict[str, list[float]] = {}
    for task in lp_tasks:
        if mu_cache is not None and task.name in mu_cache:
            mu = mu_cache[task.name]
            if len(mu) < m:
                raise AnalysisError(
                    f"cached mu array of {task.name!r} has {len(mu)} entries, need {m}"
                )
        else:
            mu = mu_array(task, m, method=mu_method)
            if mu_cache is not None:
                mu_cache[task.name] = mu
        mu_by_task[task.name] = mu

    if rho_solver == "assignment":
        deltas = _knapsack_deltas(mu_by_task.values(), m)
        if deltas is not None:
            return deltas
    return (
        _lp_ilp_single(mu_by_task, m, rho_solver),
        _lp_ilp_single(mu_by_task, m - 1, rho_solver),
    )


def _knapsack_deltas(
    mus: Iterable[Sequence[float]], m: int
) -> tuple[float, float] | None:
    """``(Δ^m, Δ^{m−1})`` from one multiple-choice knapsack table.

    ``f[c]`` is the largest ``Σ μ_i[c_i]`` over per-task core counts
    with ``Σ c_i ≤ c``; each task in turn may take ``j ≥ 1`` cores for
    ``μ_i[j]`` on top of ``f[c − j]``. With μ ≥ 0 that is the maximum of
    ``rho_assignment`` over the partitions of ``c``, and ``f`` never
    falls as ``c`` grows, so a ``μ_i[j]`` no larger than an earlier
    entry of the same task cannot raise it and is skipped.

    Returns ``None``, leaving the caller to the scenario path, unless
    every entry read is an int, or an integer-valued float, in
    ``[0, 2^53 / (8m)]``: then every sum either path forms is an exact
    integer, so both return the same float (DESIGN.md, "Δ in one table").
    """
    cap = 2.0**53 / (8 * m)
    f = [0.0] * (m + 1)
    for mu in mus:
        row = mu[:m]
        if len(row) < m:
            return None
        g = f[:]
        best = 0.0
        for j, x in enumerate(row, 1):
            kind = type(x)
            if kind is float:
                if not (0.0 <= x <= cap and x.is_integer()):
                    return None
            elif kind is not int or not 0 <= x <= cap:
                return None
            if x > best:
                best = x
                for c in range(j, m + 1):
                    value = f[c - j] + x
                    if value > g[c]:
                        g[c] = value
        f = g
    return f[m], f[m - 1]


def _lp_ilp_single(
    mu_by_task: dict[str, list[float]],
    m: int,
    rho_solver: RhoSolver,
) -> float:
    if m == 0:
        return 0.0
    best = 0.0
    for scenario in execution_scenarios(m):
        if rho_solver == "assignment":
            value: float | None = rho_assignment(mu_by_task, scenario)
        elif rho_solver == "ilp":
            # Carry the best scenario workload so far as the ILP
            # incumbent: later scenarios only pay for the branches that
            # could still raise the maximum.
            value = rho_ilp(mu_by_task, scenario, m, floor=best)
        else:
            raise AnalysisError(
                f"unknown rho solver {rho_solver!r}; choose 'assignment' or 'ilp'"
            )
        if value is not None and value > best:
            best = value
    return best

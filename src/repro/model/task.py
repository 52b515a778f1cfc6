"""Sporadic DAG task.

Implements ``tau_k`` of the paper's Section III-A: a DAG ``G_k`` of NPRs
plus a minimum inter-arrival time ``T_k``, a constrained relative
deadline ``D_k <= T_k`` and a unique fixed priority.
"""

from __future__ import annotations

from functools import cached_property

from repro.exceptions import ModelError
from repro.graph.paths import longest_path_length
from repro.model.dag import DAG


class DAGTask:
    """A sporadic DAG task ``tau_k = (G_k, T_k, D_k)`` with a priority.

    Parameters
    ----------
    name:
        Unique task identifier within a task-set (e.g. ``"tau1"``).
    graph:
        The DAG of non-preemptive regions.
    period:
        Minimum inter-arrival time ``T_k`` (> 0).
    deadline:
        Constrained relative deadline ``D_k``; defaults to ``period``
        (implicit deadline, as in the paper's evaluation). Must satisfy
        ``0 < D_k <= T_k``.
    priority:
        Unique priority; *lower value means higher priority* (paper
        orders tasks by decreasing priority, ``tau_i`` higher than
        ``tau_j`` iff ``i < j``). May be ``None`` until a priority
        assignment policy runs.

    Raises
    ------
    ModelError
        On non-positive period, deadline out of ``(0, T]``, or a deadline
        smaller than the longest path (the task could never meet it even
        on infinitely many cores).
    """

    __slots__ = ("name", "graph", "period", "deadline", "priority", "__dict__")

    def __init__(
        self,
        name: str,
        graph: DAG,
        period: float,
        deadline: float | None = None,
        priority: int | None = None,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise ModelError(f"task name must be a non-empty string, got {name!r}")
        if not isinstance(graph, DAG):
            raise ModelError(f"task {name!r}: graph must be a DAG, got {type(graph).__name__}")
        if len(graph) == 0:
            raise ModelError(f"task {name!r}: graph must contain at least one node")
        if not (period > 0):
            raise ModelError(f"task {name!r}: period must be > 0, got {period!r}")
        if deadline is None:
            deadline = period
        if not (0 < deadline <= period):
            raise ModelError(
                f"task {name!r}: deadline must satisfy 0 < D <= T, "
                f"got D={deadline!r}, T={period!r}"
            )
        self.name = name
        self.graph = graph
        self.period = float(period)
        self.deadline = float(deadline)
        self.priority = priority
        if self.longest_path > self.deadline:
            raise ModelError(
                f"task {name!r}: longest path {self.longest_path:g} exceeds "
                f"deadline {deadline:g}; the task is trivially infeasible"
            )

    # ------------------------------------------------------------------
    # derived quantities (paper Section III)
    # ------------------------------------------------------------------
    @cached_property
    def volume(self) -> float:
        """``vol(G_k)``: WCET on a dedicated single core."""
        return self.graph.volume

    @cached_property
    def longest_path(self) -> float:
        """``L_k``: length of the longest (WCET-weighted) path.

        The minimum time needed to execute the task on a sufficiently
        large number of processors (paper Section III-B1).
        """
        return longest_path_length(self.graph)

    @property
    def utilization(self) -> float:
        """``vol(G_k) / T_k``; may exceed 1 for parallel tasks."""
        return self.volume / self.period

    @property
    def density(self) -> float:
        """``vol(G_k) / D_k``."""
        return self.volume / self.deadline

    @property
    def q(self) -> int:
        """``q_k = |V_k| - 1``: number of potential preemption points."""
        return len(self.graph) - 1

    @property
    def n_nodes(self) -> int:
        """Number of NPRs ``|V_k| = q_k + 1``."""
        return len(self.graph)

    def npr_wcets(self) -> list[float]:
        """WCETs of all NPRs, in node insertion order."""
        return list(self.graph.node_wcets)

    def largest_nprs(self, count: int) -> list[float]:
        """The ``count`` largest NPR WCETs, descending (padded nothing).

        Used by the LP-max bound (paper Eq. 5): ``max^c_{1<=j<=q+1}
        C_{i,j}`` is ``largest_nprs(c)``. If the task has fewer than
        ``count`` nodes, all of them are returned.
        """
        if count < 0:
            raise ModelError(f"count must be >= 0, got {count}")
        return sorted(self.graph.node_wcets, reverse=True)[:count]

    # ------------------------------------------------------------------
    def with_priority(self, priority: int) -> "DAGTask":
        """Return a copy of this task with ``priority`` set."""
        return DAGTask(self.name, self.graph, self.period, self.deadline, priority)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAGTask):
            return NotImplemented
        return (
            self.name == other.name
            and self.graph == other.graph
            and self.period == other.period
            and self.deadline == other.deadline
            and self.priority == other.priority
        )

    def __hash__(self) -> int:
        return hash((self.name, self.graph, self.period, self.deadline, self.priority))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DAGTask({self.name!r}, |V|={self.n_nodes}, vol={self.volume:g}, "
            f"L={self.longest_path:g}, T={self.period:g}, D={self.deadline:g}, "
            f"prio={self.priority})"
        )

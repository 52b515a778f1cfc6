"""Fluent builder for hand-constructed DAGs.

Writing DAGs edge-by-edge is noisy; the builder offers ``chain`` /
``fork`` / ``join`` helpers so the paper's example graphs (and test
fixtures) read close to their figure:

>>> from repro.model import DagBuilder
>>> dag = (
...     DagBuilder()
...     .node("a", 1).node("b", 2).node("c", 3).node("d", 1)
...     .fork("a", ["b", "c"])
...     .join(["b", "c"], "d")
...     .build()
... )
>>> dag.volume
7
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import ModelError
from repro.model.dag import DAG
from repro.model.node import Node


class DagBuilder:
    """Accumulates nodes and edges, then validates into a :class:`DAG`."""

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._names: set[str] = set()
        self._edges: list[tuple[str, str]] = []
        self._edge_set: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    def node(self, name: str, wcet: float) -> "DagBuilder":
        """Add one NPR with the given WCET."""
        if name in self._names:
            raise ModelError(f"duplicate node name {name!r}")
        self._nodes.append(Node(name, wcet))
        self._names.add(name)
        return self

    def nodes(self, wcets: dict[str, float]) -> "DagBuilder":
        """Add several NPRs from a ``{name: wcet}`` mapping."""
        for name, wcet in wcets.items():
            self.node(name, wcet)
        return self

    def edge(self, u: str, v: str) -> "DagBuilder":
        """Add one precedence edge ``u -> v`` (idempotent)."""
        for endpoint in (u, v):
            if endpoint not in self._names:
                raise ModelError(f"edge ({u!r}, {v!r}): unknown node {endpoint!r}")
        if (u, v) not in self._edge_set:
            self._edge_set.add((u, v))
            self._edges.append((u, v))
        return self

    def chain(self, *names: str) -> "DagBuilder":
        """Add edges forming the path ``names[0] -> names[1] -> ...``."""
        for u, v in zip(names, names[1:]):
            self.edge(u, v)
        return self

    def fork(self, source: str, targets: Iterable[str]) -> "DagBuilder":
        """Add an edge from ``source`` to every target (parallel spawn)."""
        for t in targets:
            self.edge(source, t)
        return self

    def join(self, sources: Iterable[str], target: str) -> "DagBuilder":
        """Add an edge from every source to ``target`` (synchronisation)."""
        for s in sources:
            self.edge(s, target)
        return self

    # ------------------------------------------------------------------
    def build(self) -> DAG:
        """Validate and freeze into a :class:`DAG`."""
        return DAG(self._nodes, self._edges)

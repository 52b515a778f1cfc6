"""Directed acyclic graph of non-preemptive regions.

The :class:`DAG` is the structural half of a DAG task ``G_k = (V_k, E_k)``
(paper Section III-A): nodes are NPRs labelled with WCETs, edges are
precedence constraints. The class is an immutable container with O(1)
adjacency queries. Its topological order is computed at construction:
it is the insertion order when every edge points forward in it (as in
every generated DAG), and otherwise comes from the same Kahn pass that
rejects cycles. The heavier algorithms (longest path, parallelism sets)
live in :mod:`repro.graph` and take a ``DAG`` as input; the longest
path ``L`` is memoised on the instance, so each DAG pays for it once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from heapq import heappop, heappush

from repro.exceptions import CycleError, ModelError
from repro.model.node import Node

Edge = tuple[str, str]


class DAG:
    """An immutable DAG of :class:`~repro.model.node.Node` objects.

    Parameters
    ----------
    nodes:
        The NPRs, either :class:`Node` instances or a mapping from node
        name to WCET. Insertion order is preserved and used as the
        deterministic tie-break everywhere in the library.
    edges:
        Iterable of ``(source_name, destination_name)`` precedence pairs.

    Raises
    ------
    ModelError
        On duplicate node names, unknown edge endpoints, self-loops or
        duplicate edges.
    CycleError
        If the edge set contains a directed cycle.
    """

    __slots__ = ("_nodes", "_succ", "_pred", "_edges", "_order", "__dict__")

    def __init__(
        self,
        nodes: Iterable[Node] | Mapping[str, float],
        edges: Iterable[Edge] = (),
    ) -> None:
        if isinstance(nodes, Mapping):
            node_objs = [Node(name, wcet) for name, wcet in nodes.items()]
        else:
            node_objs = list(nodes)
        self._nodes: dict[str, Node] = {}
        for node in node_objs:
            if not isinstance(node, Node):
                raise ModelError(f"expected Node, got {type(node).__name__}")
            if node.name in self._nodes:
                raise ModelError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node

        rank = {name: i for i, name in enumerate(self._nodes)}
        succ: list[list[str]] = [[] for _ in rank]
        pred: list[list[str]] = [[] for _ in rank]
        edge_set: dict[Edge, None] = {}
        forward = True
        for u, v in edges:
            if u not in rank:
                raise ModelError(f"edge ({u!r}, {v!r}): unknown source node {u!r}")
            if v not in rank:
                raise ModelError(f"edge ({u!r}, {v!r}): unknown destination node {v!r}")
            if u == v:
                raise ModelError(f"self-loop on node {u!r} is not allowed")
            if (u, v) in edge_set:
                raise ModelError(f"duplicate edge ({u!r}, {v!r})")
            edge_set[(u, v)] = None
            ru, rv = rank[u], rank[v]
            forward = forward and ru < rv
            succ[ru].append(v)
            pred[rv].append(u)
        self._edges: tuple[Edge, ...] = tuple(edge_set)
        self._succ: dict[str, tuple[str, ...]] = dict(zip(rank, map(tuple, succ)))
        self._pred: dict[str, tuple[str, ...]] = dict(zip(rank, map(tuple, pred)))

        names = list(rank)
        if forward:
            # Every edge raises the insertion rank, so no cycle exists
            # and node ``i`` is the least ready rank once ``0..i-1``
            # are out: the Kahn order below is the insertion order.
            self._order: tuple[str, ...] = tuple(names)
            return
        # One Kahn pass both rejects cycles and fixes the topological
        # order.  Popping the ready node of least insertion rank breaks
        # ties by insertion order.
        indegree = [len(p) for p in pred]
        ready = [i for i, count in enumerate(indegree) if not count]
        order: list[str] = []
        while ready:
            current = heappop(ready)
            order.append(names[current])
            for child in succ[current]:
                j = rank[child]
                indegree[j] -= 1
                if not indegree[j]:
                    heappush(ready, j)
        if len(order) != len(names):
            raise CycleError("graph contains a directed cycle")
        self._order = tuple(order)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> tuple[str, ...]:
        """Node names in insertion order."""
        return tuple(self._nodes)

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Node objects in insertion order."""
        return tuple(self._nodes.values())

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Edges in insertion order."""
        return self._edges

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        """Return the :class:`Node` called ``name``."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ModelError(f"unknown node {name!r}") from None

    def wcet(self, name: str) -> float:
        """WCET ``C_{i,j}`` of node ``name``."""
        return self.node(name).wcet

    def wcets(self) -> dict[str, float]:
        """Mapping of node name to WCET, in insertion order."""
        return {name: node.wcet for name, node in self._nodes.items()}

    def has_edge(self, u: str, v: str) -> bool:
        """True when the direct precedence edge ``(u, v)`` exists."""
        return v in self._succ.get(u, ())

    def successors(self, name: str) -> tuple[str, ...]:
        """Direct successors of ``name`` (out-neighbours)."""
        self.node(name)
        return self._succ[name]

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Direct predecessors of ``name`` (in-neighbours)."""
        self.node(name)
        return self._pred[name]

    def siblings(self, name: str) -> tuple[str, ...]:
        """Nodes that share at least one direct predecessor with ``name``.

        This is the ``SIBLING(v)`` input set of the paper's Algorithm 1.
        The node itself is excluded; order is deterministic.
        """
        self.node(name)
        out: list[str] = []
        seen: set[str] = {name}
        for parent in self._pred[name]:
            for child in self._succ[parent]:
                if child not in seen:
                    seen.add(child)
                    out.append(child)
        return tuple(out)

    # ------------------------------------------------------------------
    # derived global quantities
    # ------------------------------------------------------------------
    @cached_property
    def volume(self) -> float:
        """``vol(G)``: total WCET of all nodes (paper Section III-B1).

        Equals the task's WCET on a dedicated single-core platform.
        """
        return sum(node.wcet for node in self._nodes.values())

    @cached_property
    def sources(self) -> tuple[str, ...]:
        """Nodes with no predecessors, in insertion order."""
        return tuple(n for n in self._nodes if not self._pred[n])

    @cached_property
    def sinks(self) -> tuple[str, ...]:
        """Nodes with no successors, in insertion order."""
        return tuple(n for n in self._nodes if not self._succ[n])

    @property
    def topological_order(self) -> tuple[str, ...]:
        """A deterministic topological order (Kahn's algorithm).

        Ties are broken by node insertion order, so the result is stable
        across runs for the same construction sequence.  Computed once,
        at construction.
        """
        return self._order

    # ------------------------------------------------------------------
    # equality / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAG):
            return NotImplemented
        return self.wcets() == other.wcets() and set(self._edges) == set(other._edges)

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((tuple(sorted(self.wcets().items())), frozenset(self._edges)))
            self.__dict__["_hash"] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAG(|V|={len(self)}, |E|={len(self._edges)}, vol={self.volume:g})"

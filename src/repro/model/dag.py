"""Directed acyclic graph of non-preemptive regions.

The :class:`DAG` is the structural half of a DAG task ``G_k = (V_k, E_k)``
(paper Section III-A): nodes are NPRs labelled with WCETs, edges are
precedence constraints. The class is an immutable container with O(1)
adjacency queries.

A DAG keeps its node names and WCETs in insertion order and its
topological order.  The public constructor checks its input and keeps
the structure it builds on the way: the :class:`Node` objects, the
edges by name and the name-keyed successor and predecessor maps.  The
generator's trusted constructor (:meth:`DAG._trusted`) checks nothing
and keeps the edges as forward ``(source, destination)`` index pairs;
the rest is derived from them in one pass, on the first read of any of
it.  So a generated DAG that is only asked for its size, volume and
longest path never builds a ``Node`` (DESIGN.md, "Generation builds
only what is read").

The topological order is the insertion order when every edge points
forward in it (as in every generated DAG), and otherwise comes from the
same Kahn pass that rejects cycles. The heavier algorithms (longest
path, parallelism sets) live in :mod:`repro.graph` and take a ``DAG`` as
input; the longest path ``L`` is memoised on the instance, so each DAG
pays for it once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
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

    __slots__ = (
        "_names", "_wcets", "_order", "_links", "_nodes", "_edges", "_succ", "_pred",
        "__dict__",
    )

    def __init__(
        self,
        nodes: Iterable[Node] | Mapping[str, float],
        edges: Iterable[Edge] = (),
    ) -> None:
        if isinstance(nodes, Mapping):
            node_objs = [Node(name, wcet) for name, wcet in nodes.items()]
        else:
            node_objs = list(nodes)
        by_name: dict[str, Node] = {}
        for node in node_objs:
            if not isinstance(node, Node):
                raise ModelError(f"expected Node, got {type(node).__name__}")
            if node.name in by_name:
                raise ModelError(f"duplicate node name {node.name!r}")
            by_name[node.name] = node

        rank = {name: i for i, name in enumerate(by_name)}
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
        names = tuple(rank)
        if forward:
            # Every edge raises the insertion rank, so no cycle exists
            # and node ``i`` is the least ready rank once ``0..i-1``
            # are out: the Kahn order below is the insertion order.
            self._order = names
        else:
            # One Kahn pass both rejects cycles and fixes the topological
            # order.  Popping the ready node of least insertion rank
            # breaks ties by insertion order.
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
        self._names = names
        self._wcets = tuple(node.wcet for node in by_name.values())
        # The structure is at hand already; the edges stay by name.
        self._links = None
        self._nodes = by_name
        self._edges = tuple(edge_set)
        self._succ = dict(zip(names, map(tuple, succ)))
        self._pred = dict(zip(names, map(tuple, pred)))

    @classmethod
    def _trusted(
        cls,
        names: Sequence[str],
        wcets: Sequence[float],
        links: Sequence[tuple[int, int]],
        volume: float | None = None,
        longest_path: float | None = None,
    ) -> DAG:
        """A DAG from arrays its caller guarantees valid; nothing is checked.

        For the generator, whose construction guarantees the invariants
        the public constructor would check: ``names`` are unique
        non-empty strings, ``wcets`` are positive, and ``links`` are
        distinct ``(u, v)`` index pairs with ``u < v`` (so no self-loop,
        no cycle, and the insertion order is topological).  ``volume``
        and ``longest_path``, when given, seed the memos of
        :attr:`volume` and :func:`~repro.graph.paths.longest_path_length`;
        they must equal what those compute, value and type.
        """
        dag = cls.__new__(cls)
        dag._names = tuple(names)
        dag._wcets = tuple(wcets)
        dag._order = dag._names
        dag._links = tuple(links)
        dag._nodes = dag._edges = dag._succ = dag._pred = None
        if volume is not None:
            dag.__dict__["volume"] = volume
        if longest_path is not None:
            dag.__dict__["_longest_path"] = longest_path
        return dag

    def _derive(self) -> None:
        """Build a trusted DAG's nodes, name edges and adjacency maps.

        Runs on the first read of any of them; the public constructor
        fills them itself.
        """
        names = self._names
        links = self._links
        succ: list[list[str]] = [[] for _ in names]
        pred: list[list[str]] = [[] for _ in names]
        for u, v in links:
            succ[u].append(names[v])
            pred[v].append(names[u])
        self._nodes = {name: Node(name, wcet) for name, wcet in zip(names, self._wcets)}
        self._edges = tuple((names[u], names[v]) for u, v in links)
        self._succ = dict(zip(names, map(tuple, succ)))
        self._pred = dict(zip(names, map(tuple, pred)))

    def _adjacency(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
        """The ``(successors, predecessors)`` maps, keyed by name."""
        if self._succ is None:
            self._derive()
        return self._succ, self._pred

    def _index_edges(self) -> tuple[Sequence[int], Sequence[tuple[int, int]]]:
        """A topological order and the edges, as insertion indices.

        Builds no ``Node``: a trusted DAG has its forward links, and its
        insertion order is topological; a public one maps its names.
        """
        if self._links is not None:
            return range(len(self._names)), self._links
        rank = {name: i for i, name in enumerate(self._names)}
        return [rank[name] for name in self._order], [
            (rank[u], rank[v]) for u, v in self._edges
        ]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> tuple[str, ...]:
        """Node names in insertion order."""
        return self._names

    @property
    def node_wcets(self) -> tuple[float, ...]:
        """Node WCETs in insertion order (parallel to :attr:`node_names`)."""
        return self._wcets

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Node objects in insertion order."""
        if self._nodes is None:
            self._derive()
        return tuple(self._nodes.values())

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Edges in insertion order."""
        if self._edges is None:
            self._derive()
        return self._edges

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        if self._nodes is None:
            self._derive()
        return name in self._nodes

    def node(self, name: str) -> Node:
        """Return the :class:`Node` called ``name``."""
        nodes = self._nodes
        if nodes is None:
            self._derive()
            nodes = self._nodes
        try:
            return nodes[name]
        except KeyError:
            raise ModelError(f"unknown node {name!r}") from None

    def wcet(self, name: str) -> float:
        """WCET ``C_{i,j}`` of node ``name``."""
        return self.node(name).wcet

    def wcets(self) -> dict[str, float]:
        """Mapping of node name to WCET, in insertion order."""
        return dict(zip(self._names, self._wcets))

    def has_edge(self, u: str, v: str) -> bool:
        """True when the direct precedence edge ``(u, v)`` exists."""
        return v in self._adjacency()[0].get(u, ())

    # ``node`` derives the structure, so the maps below are built.
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
        return sum(self._wcets)

    @cached_property
    def sources(self) -> tuple[str, ...]:
        """Nodes with no predecessors, in insertion order."""
        pred = self._adjacency()[1]
        return tuple(n for n in self._names if not pred[n])

    @cached_property
    def sinks(self) -> tuple[str, ...]:
        """Nodes with no successors, in insertion order."""
        succ = self._adjacency()[0]
        return tuple(n for n in self._names if not succ[n])

    @property
    def topological_order(self) -> tuple[str, ...]:
        """A deterministic topological order (Kahn's algorithm).

        Ties are broken by node insertion order, so the result is stable
        across runs for the same construction sequence.  Computed once.
        """
        return self._order

    # ------------------------------------------------------------------
    # equality / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAG):
            return NotImplemented
        return self.wcets() == other.wcets() and set(self.edges) == set(other.edges)

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((tuple(sorted(self.wcets().items())), frozenset(self.edges)))
            self.__dict__["_hash"] = cached
        return cached

    def __getstate__(self) -> tuple[dict | None, dict]:
        # A string hash depends on the process's hash seed, so the cached
        # hash stays behind; the volume and longest-path memos travel.
        memos, slots = super().__getstate__()
        if memos:
            memos = {key: value for key, value in memos.items() if key != "_hash"}
        return memos, slots

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAG(|V|={len(self)}, |E|={len(self.edges)}, vol={self.volume:g})"

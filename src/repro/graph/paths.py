"""Longest path and volume of a DAG task graph.

``L_k`` (the longest WCET-weighted path, a.k.a. the critical path) and
``vol(G_k)`` (total WCET) are the two DAG summary metrics the RTA of
Eq. (1)/(4) consumes: ``L_k`` is the minimum makespan on unboundedly
many cores; ``vol(G_k)`` the makespan on one core.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.model.dag import DAG


def volume(dag: DAG) -> float:
    """``vol(G)``: sum of all node WCETs."""
    return dag.volume


def longest_path_length(dag: DAG) -> float:
    """Length ``L`` of the longest path, node WCETs included.

    Computed by dynamic programming over a topological order:
    ``dist(v) = C(v) + max(dist(p) for p in pred(v), default 0)``.
    A single node's longest path is its own WCET. The result is
    memoised on the DAG instance (DAGs are immutable); the generator
    and the NPR split seed the memo with the value they carry out of
    their construction (:meth:`repro.model.dag.DAG._trusted`), so a
    generated or forward split DAG never runs the pass.
    """
    cached = dag.__dict__.get("_longest_path")
    if cached is None:
        cached = dag.__dict__["_longest_path"] = max(_distances(dag)[1], default=0.0)
    return cached


def longest_path_nodes(dag: DAG) -> tuple[str, ...]:
    """One longest path as a node sequence (ties broken deterministically).

    Useful for reporting which chain is critical; the *length* of the
    returned chain always equals :func:`longest_path_length`.
    """
    order, dist, back = _distances(dag)
    chain: list[str] = []
    # The first node of greatest ``dist`` in topological order.
    cursor = max(order, key=dist.__getitem__, default=-1)
    while cursor >= 0:
        chain.append(dag.node_names[cursor])
        cursor = back[cursor]
    return tuple(reversed(chain))


def _distances(dag: DAG) -> tuple[Sequence[int], list[float], list[int]]:
    """A topological order, and ``dist(v)`` and the first predecessor
    attaining its max (−1 for none) by node index.

    Reads index edges and the WCET tuple, so no ``Node`` is built.
    """
    order, links = dag._index_edges()
    wcets = dag.node_wcets
    parents: list[list[int]] = [[] for _ in wcets]
    for u, v in links:
        parents[v].append(u)
    dist = [0.0] * len(wcets)
    back = [-1] * len(wcets)
    for v in order:
        for u in parents[v]:
            if dist[u] > dist[v]:
                dist[v], back[v] = dist[u], u
        dist[v] += wcets[v]
    return order, dist, back

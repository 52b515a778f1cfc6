"""Longest path and volume of a DAG task graph.

``L_k`` (the longest WCET-weighted path, a.k.a. the critical path) and
``vol(G_k)`` (total WCET) are the two DAG summary metrics the RTA of
Eq. (1)/(4) consumes: ``L_k`` is the minimum makespan on unboundedly
many cores; ``vol(G_k)`` the makespan on one core.
"""

from __future__ import annotations

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
    seeds the memo with the value it carries out of its construction
    (:meth:`repro.model.dag.DAG._trusted`), so a generated DAG never
    runs the pass.
    """
    cached = dag.__dict__.get("_longest_path")
    if cached is not None:
        return cached
    # Runs once per DAG: read the adjacency directly, not through the
    # checked per-node accessors.
    pred = dag._adjacency()[1]
    wcet = dag.wcets()
    dist: dict[str, float] = {}
    best = 0.0
    for name in dag.topological_order:
        length = max([dist[p] for p in pred[name]], default=0.0) + wcet[name]
        dist[name] = length
        if length > best:
            best = length
    dag.__dict__["_longest_path"] = best
    return best


def longest_path_nodes(dag: DAG) -> tuple[str, ...]:
    """One longest path as a node sequence (ties broken deterministically).

    Useful for reporting which chain is critical; the *length* of the
    returned chain always equals :func:`longest_path_length`.
    """
    dist: dict[str, float] = {}
    back: dict[str, str | None] = {}
    for name in dag.topological_order:
        best_pred: str | None = None
        best_dist = 0.0
        for p in dag.predecessors(name):
            if dist[p] > best_dist:
                best_dist = dist[p]
                best_pred = p
        dist[name] = best_dist + dag.wcet(name)
        back[name] = best_pred
    if not dist:
        return ()
    end = max(dist, key=lambda n: (dist[n], -dag.topological_order.index(n)))
    chain: list[str] = []
    cursor: str | None = end
    while cursor is not None:
        chain.append(cursor)
        cursor = back[cursor]
    return tuple(reversed(chain))

"""Topological order and reachability over DAGs.

These are the ``TOPOLOGICAL-ORDER(G)``, ``SUCC(v)`` and ``PRED(v)``
inputs of the paper's Algorithm 1 (Section V-A1). ``SUCC(v)`` is the set
of nodes *reachable* from ``v`` (not just direct successors), and
``PRED(v)`` the set of nodes from which ``v`` is reachable.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.model.dag import DAG


def topological_order(dag: DAG) -> tuple[str, ...]:
    """Deterministic topological order of ``dag``.

    Delegates to :attr:`repro.model.dag.DAG.topological_order`; exposed
    here so graph algorithms have a uniform functional interface.
    """
    return dag.topological_order


def reachable_from(dag: DAG, name: str) -> frozenset[str]:
    """All nodes reachable from ``name`` by directed paths (exclusive).

    This is the paper's ``SUCC(v)`` input set.
    """
    dag.node(name)
    seen: set[str] = set()
    stack = list(dag.successors(name))
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(dag.successors(current))
    return frozenset(seen)


def descendants_map(dag: DAG) -> dict[str, frozenset[str]]:
    """``SUCC(v)`` for every node, computed in one reverse-topological pass.

    ``SUCC(v) = children(v) ∪ ⋃_{c ∈ children(v)} SUCC(c)``. Complexity is
    O(|V|·|V|) set unions in the worst case, fine for the paper's DAG
    sizes (≤ 30 nodes) and far cheaper than per-node DFS for dense DAGs.
    """
    succ: dict[str, frozenset[str]] = {}
    for name in reversed(dag.topological_order):
        acc: set[str] = set()
        for child in dag.successors(name):
            acc.add(child)
            acc |= succ[child]
        succ[name] = frozenset(acc)
    return succ


def reach_masks(dag: DAG, bits: Sequence[int]) -> tuple[list[int], list[int]]:
    """``SUCC(v)`` and ``PRED(v)`` of every node as bitmasks.

    Entry ``i`` of each list belongs to node ``i`` in insertion order,
    and ``bits[j]`` is node ``j``'s bit in the masks (0 leaves it out;
    reachability still runs through it).  One backward and one forward
    pass over a topological order, on index edges, so no ``Node`` is
    built.
    """
    order, links = dag._index_edges()
    children: list[list[int]] = [[] for _ in bits]
    parents: list[list[int]] = [[] for _ in bits]
    for u, v in links:
        children[u].append(v)
        parents[v].append(u)
    below = [0] * len(bits)
    for u in reversed(order):
        reach = 0
        for v in children[u]:
            reach |= bits[v] | below[v]
        below[u] = reach
    above = [0] * len(bits)
    for v in order:
        reach = 0
        for u in parents[v]:
            reach |= bits[u] | above[u]
        above[v] = reach
    return below, above


def ancestors_map(dag: DAG) -> dict[str, frozenset[str]]:
    """``PRED(v)`` for every node: all nodes from which ``v`` is reachable."""
    pred: dict[str, frozenset[str]] = {}
    for name in dag.topological_order:
        acc: set[str] = set()
        for parent in dag.predecessors(name):
            acc.add(parent)
            acc |= pred[parent]
        pred[name] = frozenset(acc)
    return pred

"""Which NPRs of a DAG may execute in parallel.

Two nodes of a DAG can overlap in time iff neither is reachable from the
other — i.e. they form an *antichain* of size 2 in the precedence partial
order. This module provides:

* :func:`par_sets_oracle` — the reachability-based definition, computed
  from the transitive closure (always correct);
* :func:`parallel_masks` — the same sets as integer bitmasks over any
  subset of the nodes, given by index, from bitset reachability (what
  the μ search consumes);
* :func:`algorithm1_par_sets` — a faithful transcription of the paper's
  Algorithm 1 (Section V-A1), with an optional correction knob (see
  below);
* :func:`parallel_pairs` / :func:`is_parallel` — the pair relation
  ``IsPar`` used by the μ ILP of Section V-A2.

Fidelity note
-------------
Algorithm 1's line 5 checks only *direct* edges between siblings
(``(v_j, v_l) ∉ E and (v_l, v_j) ∉ E``). Siblings connected through a
longer path (e.g. ``a → c → b`` where ``a`` and ``b`` share a parent)
would then be wrongly declared parallel. Such shapes cannot occur in the
nested fork-join graphs the paper's generator produces, but they are
legal DAGs. ``edge_check="path"`` (the default) replaces the test with
reachability, which is sound for any single-source DAG;
``edge_check="direct"`` reproduces the paper's listing verbatim.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Literal

from repro.exceptions import GraphError
from repro.graph.topology import ancestors_map, descendants_map, reach_masks
from repro.model.dag import DAG


def par_sets_oracle(dag: DAG) -> dict[str, frozenset[str]]:
    """``Par(v)`` for every node via the transitive closure.

    ``Par(v) = V \\ ({v} ∪ SUCC(v) ∪ PRED(v))`` — nodes with no directed
    path to or from ``v``. This is the ground-truth definition against
    which Algorithm 1 is validated.
    """
    succ = descendants_map(dag)
    pred = ancestors_map(dag)
    all_nodes = set(dag.node_names)
    return {
        v: frozenset(all_nodes - {v} - succ[v] - pred[v]) for v in dag.node_names
    }


def parallel_masks(dag: DAG, nodes: Sequence[int]) -> list[int]:
    """``Par(v)`` of each node of ``nodes`` as a bitmask over ``nodes``.

    ``nodes`` holds insertion indices.  Bit ``j`` of entry ``i`` is set
    iff node ``nodes[j]`` may run in parallel with node ``nodes[i]``:
    the same relation as :func:`par_sets_oracle`, from reachability
    held as bitsets (:func:`~repro.graph.topology.reach_masks`), so no
    ``Node`` is built.

    ``nodes`` may be any subset of the nodes, in any order.  The masks
    are then ``Par(v)`` restricted to that subset: reachability still
    runs through the nodes left out, which only have no bit.
    """
    bits = [0] * len(dag)
    for j, i in enumerate(nodes):
        bits[i] = 1 << j
    below, above = reach_masks(dag, bits)
    everything = (1 << len(nodes)) - 1
    return [everything & ~(bits[i] | below[i] | above[i]) for i in nodes]


def algorithm1_par_sets(
    dag: DAG,
    edge_check: Literal["path", "direct"] = "path",
) -> dict[str, frozenset[str]]:
    """The paper's Algorithm 1: compute ``Par(v)`` for every node.

    Inputs mirror the paper: the DAG, its topological order, and the
    per-node ``SIBLING`` (common direct predecessor), ``SUCC``
    (reachable) and ``PRED`` (reaching) sets.

    Parameters
    ----------
    dag:
        The task graph.
    edge_check:
        ``"direct"`` reproduces line 5 verbatim (direct-edge test only);
        ``"path"`` (default) uses reachability, which is what the test
        evidently intends (see module docstring).

    Returns
    -------
    dict
        ``Par(v)`` as a frozenset per node name.

    Raises
    ------
    GraphError
        If ``edge_check`` is not one of the two spellings.
    """
    if edge_check not in ("path", "direct"):
        raise GraphError(f"edge_check must be 'path' or 'direct', got {edge_check!r}")
    succ = descendants_map(dag)
    pred = ancestors_map(dag)
    par: dict[str, set[str]] = {v: set() for v in dag.node_names}

    # First loop (paper lines 2-10): siblings and their exclusive successors.
    for v_j in dag.node_names:
        for v_l in dag.siblings(v_j):
            if edge_check == "direct":
                ordered = dag.has_edge(v_j, v_l) or dag.has_edge(v_l, v_j)
            else:
                ordered = v_l in succ[v_j] or v_j in succ[v_l]
            if ordered:
                continue
            exclusive_succ = succ[v_l] - succ[v_j]
            par[v_j].add(v_l)
            par[v_j] |= exclusive_succ

    # Second loop (paper lines 11-16): propagate ancestors' Par sets
    # downwards in topological order, dropping the node's own ancestors.
    for v_j in dag.topological_order:
        for v_l in pred[v_j]:
            par[v_j] |= par[v_l] - pred[v_j] - {v_j}
    return {v: frozenset(s) for v, s in par.items()}


def parallel_pairs(dag: DAG) -> frozenset[frozenset[str]]:
    """The symmetric ``IsPar`` relation as a set of unordered pairs."""
    par = par_sets_oracle(dag)
    pairs: set[frozenset[str]] = set()
    for v, others in par.items():
        for w in others:
            pairs.add(frozenset((v, w)))
    return frozenset(pairs)


def is_parallel(dag: DAG, u: str, v: str) -> bool:
    """``IsPar(u, v)``: True iff ``u`` and ``v`` may execute in parallel.

    Raises
    ------
    GraphError
        If ``u == v`` (a node is never parallel with itself).
    """
    if u == v:
        raise GraphError(f"is_parallel is undefined for identical nodes ({u!r})")
    dag.node(u)
    dag.node(v)
    succ = descendants_map(dag)
    return v not in succ[u] and u not in succ[v]

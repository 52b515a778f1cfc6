"""Poset-level properties of task graphs: antichains and width.

The *width* of the precedence partial order (the size of its largest
antichain) is the maximum number of NPRs a task can occupy in parallel —
the paper calls it the task's "maximum level of parallelism" (Section
IV-B). ``μ_i[c] = 0`` for every ``c`` above the width.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.exceptions import GraphError
from repro.graph.topology import descendants_map, reach_masks
from repro.model.dag import DAG


def is_antichain(dag: DAG, nodes: Iterable[str]) -> bool:
    """True when ``nodes`` are pairwise unordered (may all run in parallel).

    The empty set and singletons are antichains by convention.

    Raises
    ------
    GraphError
        If ``nodes`` contains duplicates or unknown names.
    """
    node_list = list(nodes)
    if len(set(node_list)) != len(node_list):
        raise GraphError(f"duplicate nodes in antichain query: {node_list}")
    for name in node_list:
        dag.node(name)
    succ = descendants_map(dag)
    for i, u in enumerate(node_list):
        for v in node_list[i + 1 :]:
            if v in succ[u] or u in succ[v]:
                return False
    return True


def antichains(dag: DAG, max_size: int | None = None) -> Iterator[tuple[str, ...]]:
    """Enumerate every non-empty antichain of ``dag`` (test oracle).

    Exponential in general — intended for small graphs (≲ 20 nodes) as a
    brute-force oracle in tests and for the exhaustive μ cross-check.
    Yields tuples in a deterministic order (nodes follow topological
    rank; sets are emitted in lexicographic order of ranks).

    Parameters
    ----------
    max_size:
        If given, only antichains with at most this many nodes are
        yielded.
    """
    order = dag.topological_order
    succ = descendants_map(dag)

    def compatible(candidate: str, chosen: tuple[str, ...]) -> bool:
        return all(
            candidate not in succ[picked] and picked not in succ[candidate]
            for picked in chosen
        )

    def extend(start: int, chosen: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        for idx in range(start, len(order)):
            node = order[idx]
            if not compatible(node, chosen):
                continue
            grown = chosen + (node,)
            yield grown
            if max_size is None or len(grown) < max_size:
                yield from extend(idx + 1, grown)

    yield from extend(0, ())


def max_parallelism(dag: DAG) -> int:
    """Width of the precedence poset (largest antichain size).

    Computed via Dilworth's theorem: the width equals ``|V|`` minus the
    size of a maximum matching in the bipartite *comparability* graph
    (left copy ``u`` joined to right copy ``v`` iff ``u`` strictly
    precedes ``v``), because a maximum matching yields a minimum chain
    cover. The matching grows by one augmenting path per left node
    (Kuhn's algorithm), with each node's descendants as a bitmask.
    Polynomial, exact, and independent of the antichain enumeration
    used in tests.
    """
    below, _ = reach_masks(dag, [1 << i for i in range(len(dag))])
    owner = [-1] * len(below)  # the left node each right node is matched to
    seen = 0  # right nodes the current search has visited

    def augment(left: int) -> bool:
        nonlocal seen
        while untried := below[left] & ~seen:
            bit = untried & -untried
            seen |= bit
            right = bit.bit_length() - 1
            if owner[right] < 0 or augment(owner[right]):
                owner[right] = left
                return True
        return False

    matched = 0
    for root in range(len(below)):
        seen = 0
        matched += augment(root)
    return len(below) - matched

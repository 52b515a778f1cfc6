"""One-pass structural code checked against step-by-step references.

A ``DAG`` orders its nodes once at construction, ``split_all_nodes``
rebuilds the graph once for all heavy nodes, and ``mu_array`` builds
the μ search's tables once for every core count, over one node per
class of interchangeable NPRs. Each is pinned here to a straightforward
reference: ordered tuples and float bits must match, and so must the
errors raised.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload import mu_array, mu_bruteforce, mu_value
from repro.exceptions import CycleError, ModelError
from repro.graph import descendants_map, par_sets_oracle
from repro.graph.parallel import parallel_masks
from repro.model import DAG, Node
from repro.model.transforms import split_all_nodes, split_node

from tests.strategies import random_dags


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def reference_topological_order(dag: DAG) -> tuple[str, ...]:
    """Kahn's algorithm, re-sorting the ready list by insertion rank."""
    names = dag.node_names
    indegree = {name: len(dag.predecessors(name)) for name in names}
    ready = [name for name in names if indegree[name] == 0]
    order: list[str] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        appended: list[str] = []
        for succ in dag.successors(current):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                appended.append(succ)
        if appended:
            ready.extend(appended)
            rank = {name: i for i, name in enumerate(names)}
            ready.sort(key=rank.__getitem__)
    return tuple(order)


def reference_split_node(dag: DAG, name: str, parts: int, overhead: float = 0.0) -> DAG:
    """One node split into a chain, rebuilding the whole graph."""
    if parts < 1:
        raise ModelError(f"parts must be >= 1, got {parts}")
    if overhead < 0:
        raise ModelError(f"overhead must be >= 0, got {overhead}")
    original = dag.node(name)
    sub_names = [f"{name}#{i}" for i in range(parts)]
    for sub in sub_names:
        if sub in dag:
            raise ModelError(f"split of {name!r} collides with existing {sub!r}")
    share = original.wcet / parts
    nodes: list[Node] = []
    for node in dag.nodes:
        if node.name == name:
            running = 0.0
            for i, sub in enumerate(sub_names):
                wcet = share if i < parts - 1 else original.wcet - running
                running += wcet
                if i > 0:
                    wcet += overhead
                nodes.append(Node(sub, wcet))
        else:
            nodes.append(node)
    edges = []
    for u, v in dag.edges:
        edges.append((sub_names[-1] if u == name else u, sub_names[0] if v == name else v))
    edges.extend((sub_names[i], sub_names[i + 1]) for i in range(parts - 1))
    return DAG(nodes, edges)


def reference_split_all(dag: DAG, max_wcet: float, overhead: float = 0.0) -> DAG:
    """The fold of :func:`reference_split_node` over the heavy nodes."""
    if max_wcet <= 0:
        raise ModelError(f"max_wcet must be > 0, got {max_wcet}")
    result = dag
    for node in dag.nodes:
        if node.wcet > max_wcet:
            parts = math.ceil(node.wcet / max_wcet)
            result = reference_split_node(result, node.name, parts, overhead=overhead)
    return result


def outcome(fn, *args):
    """A DAG's ordered nodes (WCET bits) and edges, or the error raised."""
    try:
        dag = fn(*args)
    except ModelError as exc:
        return ("error", type(exc), str(exc))
    return (
        tuple((node.name, node.wcet.hex()) for node in dag.nodes),
        dag.edges,
        dag.topological_order,
    )


@st.composite
def shuffled_dags(draw, **kwargs) -> DAG:
    """``random_dags`` rebuilt with nodes and edges in a drawn order."""
    dag = draw(random_dags(**kwargs))
    nodes = draw(st.permutations(dag.nodes))
    edges = draw(st.permutations(dag.edges))
    return DAG(nodes, edges)


@st.composite
def colliding_dags(draw, **kwargs) -> DAG:
    """Random DAGs where some names look like another node's sub-nodes."""
    dag = draw(shuffled_dags(**kwargs))
    names = list(dag.node_names)
    renamed: dict[str, str] = {}
    taken: set[str] = set(names)
    for name in names:
        if draw(st.booleans()):
            new = f"{draw(st.sampled_from(names))}#{draw(st.integers(0, 3))}"
            if new not in taken:
                taken.add(new)
                renamed[name] = new
    return DAG(
        [Node(renamed.get(n.name, n.name), n.wcet) for n in dag.nodes],
        [(renamed.get(u, u), renamed.get(v, v)) for u, v in dag.edges],
    )


overheads = st.one_of(st.just(0.0), st.floats(0.01, 5.0), st.floats(-2.0, -0.01))


# ----------------------------------------------------------------------
# one Kahn pass at construction
# ----------------------------------------------------------------------
class TestTopologicalOrder:
    @given(shuffled_dags(max_nodes=14))
    @settings(max_examples=150)
    def test_equals_rank_sorted_kahn(self, dag):
        assert dag.topological_order == reference_topological_order(dag)

    @given(random_dags(min_nodes=2, max_nodes=10, edge_probability=0.5), st.data())
    def test_cycle_rejected_at_construction(self, dag, data):
        reach = descendants_map(dag)
        pairs = [(u, v) for u in dag.node_names for v in sorted(reach[u])]
        if not pairs:
            return
        u, v = data.draw(st.sampled_from(pairs))
        with pytest.raises(CycleError):
            DAG(dag.nodes, dag.edges + ((v, u),))


# ----------------------------------------------------------------------
# NPR splitting in one pass
# ----------------------------------------------------------------------
class TestSplitAllNodes:
    @given(shuffled_dags(max_nodes=9, max_wcet=40), st.floats(0.5, 30.0), overheads)
    @settings(max_examples=150, deadline=None)
    def test_equals_fold_of_single_splits(self, dag, max_wcet, overhead):
        assert outcome(split_all_nodes, dag, max_wcet, overhead) == outcome(
            reference_split_all, dag, max_wcet, overhead
        )

    @given(colliding_dags(max_nodes=8, max_wcet=40), st.floats(0.5, 30.0), overheads)
    @settings(max_examples=150, deadline=None)
    def test_same_errors_on_name_collisions(self, dag, max_wcet, overhead):
        assert outcome(split_all_nodes, dag, max_wcet, overhead) == outcome(
            reference_split_all, dag, max_wcet, overhead
        )

    @given(random_dags(max_nodes=4), st.floats(-5.0, 0.0))
    def test_same_error_on_bad_threshold(self, dag, max_wcet):
        assert outcome(split_all_nodes, dag, max_wcet) == outcome(
            reference_split_all, dag, max_wcet
        )

    @given(random_dags(max_nodes=6, max_wcet=10))
    def test_returns_the_same_dag_when_nothing_is_heavy(self, dag):
        assert split_all_nodes(dag, 10.0) is dag

    @given(colliding_dags(max_nodes=7), st.data(), st.integers(-1, 4), overheads)
    @settings(deadline=None)
    def test_split_node_equals_reference(self, dag, data, parts, overhead):
        name = data.draw(st.sampled_from(dag.node_names + ("missing",)))
        assert outcome(split_node, dag, name, parts, overhead) == outcome(
            reference_split_node, dag, name, parts, overhead
        )


# ----------------------------------------------------------------------
# μ tables once per mu_array
# ----------------------------------------------------------------------
def indices(dag: DAG, names) -> list[int]:
    """The insertion indices of ``names``, which ``parallel_masks`` takes."""
    return [dag.node_names.index(name) for name in names]


class TestMuTables:
    @given(random_dags(max_nodes=8), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_mu_array_equals_per_c_values_and_bruteforce(self, dag, m):
        values = mu_array(dag, m)
        assert values == [mu_value(dag, c) for c in range(1, m + 1)]
        assert values == [mu_bruteforce(dag, c) for c in range(1, m + 1)]

    @given(shuffled_dags(max_nodes=14), st.data())
    @settings(max_examples=150)
    def test_bitset_masks_equal_oracle_masks(self, dag, data):
        names = data.draw(st.permutations(dag.node_names))
        index = {name: i for i, name in enumerate(names)}
        par = par_sets_oracle(dag)
        expected = [sum(1 << index[other] for other in par[name]) for name in names]
        assert parallel_masks(dag, indices(dag, names)) == expected

    @given(shuffled_dags(max_nodes=14), st.data())
    @settings(max_examples=150)
    def test_subset_masks_equal_restricted_oracle_masks(self, dag, data):
        names = data.draw(st.permutations(dag.node_names))
        subset = names[: data.draw(st.integers(0, len(names)))]
        index = {name: i for i, name in enumerate(subset)}
        par = par_sets_oracle(dag)
        expected = [
            sum(1 << index[other] for other in par[name] if other in index)
            for name in subset
        ]
        assert parallel_masks(dag, indices(dag, subset)) == expected


# ----------------------------------------------------------------------
# μ over classes of interchangeable NPRs, on non-integer WCETs
# ----------------------------------------------------------------------
class TestMuFloatWcets:
    """The search returns the oracle's float, bit for bit.

    Integer WCETs sum exactly in any order; tenths and thirds do not, so
    here the class representative and the order of every sum matter.
    """

    @given(random_dags(max_nodes=9, fractional=True), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_fractional_wcets_equal_bruteforce_bits(self, dag, c):
        assert mu_value(dag, c).hex() == mu_bruteforce(dag, c).hex()

    @given(
        random_dags(max_nodes=6, max_wcet=12, fractional=True),
        st.floats(3.0, 12.0),
        st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_dags_equal_bruteforce_bits(self, dag, max_wcet, c):
        split = split_all_nodes(dag, max_wcet)
        assert mu_value(split, c).hex() == mu_bruteforce(split, c).hex()

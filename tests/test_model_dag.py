"""Unit tests for :mod:`repro.model.dag`."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import CycleError, ModelError
from repro.model import DAG, Node


def make(nodes, edges=()):
    return DAG(nodes, edges)


class TestConstruction:
    def test_from_mapping(self):
        dag = make({"a": 1, "b": 2})
        assert dag.node_names == ("a", "b")
        assert dag.wcet("a") == 1

    def test_from_node_objects(self):
        dag = make([Node("a", 1), Node("b", 2)], [("a", "b")])
        assert dag.has_edge("a", "b")

    def test_duplicate_node_rejected(self):
        with pytest.raises(ModelError, match="duplicate node"):
            make([Node("a", 1), Node("a", 2)])

    def test_unknown_edge_source_rejected(self):
        with pytest.raises(ModelError, match="unknown source"):
            make({"a": 1}, [("x", "a")])

    def test_unknown_edge_destination_rejected(self):
        with pytest.raises(ModelError, match="unknown destination"):
            make({"a": 1}, [("a", "x")])

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError, match="self-loop"):
            make({"a": 1}, [("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ModelError, match="duplicate edge"):
            make({"a": 1, "b": 1}, [("a", "b"), ("a", "b")])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            make({"a": 1, "b": 1}, [("a", "b"), ("b", "a")])

    def test_long_cycle_rejected(self):
        with pytest.raises(CycleError):
            make({"a": 1, "b": 1, "c": 1}, [("a", "b"), ("b", "c"), ("c", "a")])

    def test_non_node_rejected(self):
        with pytest.raises(ModelError, match="expected Node"):
            DAG(["nope"])  # type: ignore[list-item]


class TestAccessors:
    def test_len_iter_contains(self, diamond):
        assert len(diamond) == 4
        assert list(diamond) == ["s", "a", "b", "t"]
        assert "a" in diamond
        assert "zz" not in diamond

    def test_unknown_node_lookup(self, diamond):
        with pytest.raises(ModelError, match="unknown node"):
            diamond.node("zz")

    def test_successors_predecessors(self, diamond):
        assert set(diamond.successors("s")) == {"a", "b"}
        assert diamond.predecessors("t") == ("a", "b")
        assert diamond.predecessors("s") == ()
        assert diamond.successors("t") == ()

    def test_wcets_mapping(self, diamond):
        assert diamond.wcets() == {"s": 1, "a": 2, "b": 3, "t": 4}

    def test_siblings_diamond(self, diamond):
        assert set(diamond.siblings("a")) == {"b"}
        assert diamond.siblings("s") == ()

    def test_siblings_multiple_parents(self):
        # x and y both feed c; c's siblings are the other children of x, y.
        dag = make(
            {"x": 1, "y": 1, "c": 1, "d": 1, "e": 1},
            [("x", "c"), ("x", "d"), ("y", "c"), ("y", "e")],
        )
        assert set(dag.siblings("c")) == {"d", "e"}


class TestDerived:
    def test_volume(self, diamond):
        assert diamond.volume == 10

    def test_sources_sinks(self, diamond):
        assert diamond.sources == ("s",)
        assert diamond.sinks == ("t",)

    def test_multi_source_sink(self):
        dag = make({"a": 1, "b": 1, "c": 1}, [("a", "c")])
        assert set(dag.sources) == {"a", "b"}
        assert set(dag.sinks) == {"b", "c"}

    def test_topological_order_diamond(self, diamond):
        order = diamond.topological_order
        assert order.index("s") < order.index("a") < order.index("t")
        assert order.index("s") < order.index("b") < order.index("t")

    def test_topological_order_deterministic(self, diamond):
        assert diamond.topological_order == diamond.topological_order
        rebuilt = make({"s": 1, "a": 2, "b": 3, "t": 4},
                       [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        assert rebuilt.topological_order == diamond.topological_order


class TestEquality:
    def test_equal_ignores_edge_order(self):
        d1 = make({"a": 1, "b": 1, "c": 1}, [("a", "b"), ("a", "c")])
        d2 = make({"a": 1, "b": 1, "c": 1}, [("a", "c"), ("a", "b")])
        assert d1 == d2
        assert hash(d1) == hash(d2)

    def test_unequal_wcets(self):
        assert make({"a": 1}) != make({"a": 2})

    def test_unequal_edges(self):
        d1 = make({"a": 1, "b": 1}, [("a", "b")])
        d2 = make({"a": 1, "b": 1})
        assert d1 != d2

    def test_not_equal_to_other_type(self, diamond):
        assert diamond != "diamond"


def least_rank_kahn(names, edges) -> tuple[str, ...]:
    """Kahn's algorithm, popping the ready node of least insertion rank.

    The reference order. It is shorter than ``names`` exactly when the
    edges contain a cycle.
    """
    indegree = {name: 0 for name in names}
    for _, v in edges:
        indegree[v] += 1
    ready = [name for name in names if not indegree[name]]
    order = []
    while ready:
        current = min(ready, key=names.index)
        ready.remove(current)
        order.append(current)
        for u, v in edges:
            if u == current:
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
    return tuple(order)


@st.composite
def shuffled_dags(draw):
    """``(names, edges)`` of a random DAG whose nodes are inserted in
    index order (every edge forward) or shuffled (some edges backward),
    with the edges listed in any order."""
    n = draw(st.integers(1, 12))
    edges = [
        (f"n{i}", f"n{j}")
        for i in range(n) for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    names = [f"n{i}" for i in range(n)]
    if draw(st.booleans()):
        names = draw(st.permutations(names))
    return list(names), draw(st.permutations(edges))


class TestTopologicalOrder:
    """Forward-edge inputs skip the Kahn pass; the order must not change."""

    @given(shuffled_dags())
    def test_order_is_the_least_rank_kahn_order(self, case):
        names, edges = case
        dag = make({name: 1 for name in names}, edges)
        assert dag.topological_order == least_rank_kahn(names, edges)
        if all(names.index(u) < names.index(v) for u, v in edges):
            assert dag.topological_order == tuple(names)

    @given(shuffled_dags(), st.data())
    def test_a_cycle_still_raises(self, case, data):
        names, edges = case
        if not edges:
            return
        u, v = data.draw(st.sampled_from(edges))
        with pytest.raises(CycleError):
            make({name: 1 for name in names}, [*edges, (v, u)])

    def test_forward_chain_closed_by_a_back_edge_raises(self):
        nodes = {f"n{i}": 1 for i in range(5)}
        chain = [(f"n{i}", f"n{i + 1}") for i in range(4)]
        assert make(nodes, chain).topological_order == tuple(nodes)
        with pytest.raises(CycleError):
            make(nodes, [*chain, ("n4", "n0")])

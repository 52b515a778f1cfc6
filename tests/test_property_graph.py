"""Property-based tests on graph algorithms (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    algorithm1_par_sets,
    ancestors_map,
    descendants_map,
    is_antichain,
    longest_path_length,
    longest_path_nodes,
    max_parallelism,
    par_sets_oracle,
)
from repro.graph.properties import antichains
from repro.model.serialization import dag_from_dict, dag_to_dict

from tests.strategies import random_dags


@pytest.fixture(scope="module")
def nx():
    """networkx, imported once before any timed example runs: its
    import alone can outlast Hypothesis's 200 ms deadline on a loaded
    CPU, which failed the first example as flaky."""
    return pytest.importorskip("networkx")


class TestStructuralInvariants:
    @given(random_dags())
    def test_topological_order_respects_edges(self, dag):
        position = {n: i for i, n in enumerate(dag.topological_order)}
        assert all(position[u] < position[v] for u, v in dag.edges)

    @given(random_dags())
    def test_longest_path_bounds(self, dag):
        lp = longest_path_length(dag)
        assert max(n.wcet for n in dag.nodes) <= lp <= dag.volume

    @given(random_dags())
    def test_longest_path_nodes_is_a_path_with_that_length(self, dag):
        nodes = longest_path_nodes(dag)
        assert all(dag.has_edge(u, v) for u, v in zip(nodes, nodes[1:]))
        assert abs(sum(dag.wcet(n) for n in nodes) - longest_path_length(dag)) < 1e-9

    @given(random_dags())
    def test_serialization_round_trip(self, dag):
        assert dag_from_dict(dag_to_dict(dag)) == dag

    @given(random_dags())
    def test_reachability_maps_are_mutually_inverse(self, dag):
        succ = descendants_map(dag)
        pred = ancestors_map(dag)
        for u in dag.node_names:
            for v in succ[u]:
                assert u in pred[v]
            for v in pred[u]:
                assert u in succ[v]


class TestParallelismProperties:
    @given(random_dags(single_source=True))
    @settings(max_examples=150)
    def test_algorithm1_matches_oracle_on_single_source(self, dag):
        """The paper's Algorithm 1 (with the path-reachability check)
        must compute exactly the no-path relation on single-source DAGs."""
        assert algorithm1_par_sets(dag, edge_check="path") == par_sets_oracle(dag)

    @given(random_dags())
    def test_oracle_par_sets_are_symmetric_and_exclude_relatives(self, dag):
        par = par_sets_oracle(dag)
        succ = descendants_map(dag)
        for v, others in par.items():
            assert v not in others
            for w in others:
                assert v in par[w]
                assert w not in succ[v] and v not in succ[w]

    @given(random_dags(max_nodes=8))
    def test_width_equals_bruteforce_max_antichain(self, dag):
        brute = max((len(c) for c in antichains(dag)), default=0)
        assert max_parallelism(dag) == brute

    @given(random_dags(max_nodes=8))
    def test_all_enumerated_antichains_pass_is_antichain(self, dag):
        for chain in antichains(dag, max_size=3):
            assert is_antichain(dag, chain)

    @given(random_dags(max_nodes=16, edge_probability=0.2))
    def test_width_equals_networkx_dilworth(self, nx, dag):
        """networkx, a test oracle only, matches the comparability graph
        by Hopcroft–Karp; the width is |V| minus the matching."""
        succ = descendants_map(dag)
        bipartite = nx.Graph()
        left = [("L", name) for name in dag.node_names]
        bipartite.add_nodes_from(left)
        bipartite.add_nodes_from(("R", name) for name in dag.node_names)
        bipartite.add_edges_from(
            (("L", u), ("R", v)) for u in dag.node_names for v in succ[u])
        matching = nx.bipartite.maximum_matching(bipartite, top_nodes=left)
        assert max_parallelism(dag) == len(dag) - len(matching) // 2

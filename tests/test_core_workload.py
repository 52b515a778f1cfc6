"""Unit tests for :mod:`repro.core.workload` (μ_i[c], paper Table I)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload import _mu_cotree, _mu_search, mu_array, mu_bruteforce, mu_value
from repro.exceptions import AnalysisError
from repro.experiments.figure1 import TABLE1_EXPECTED
from repro.model import DAG, DagBuilder
from repro.model.transforms import split_all_nodes

from tests.strategies import series_parallel_dags

ALL_METHODS = ("search", "ilp", "ilp-paper")


class TestPaperTable1:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_table1_all_methods(self, fig1_tasks, method):
        """Every μ_i[c] of the paper's Table I, with every solver."""
        for task in fig1_tasks:
            assert mu_array(task, 4, method=method) == TABLE1_EXPECTED[task.name]

    def test_mu4_2_attained_by_v43_v44(self, fig1_tau4):
        # The paper explains mu4[2]=9 comes from v4,3 + v4,4 in parallel.
        assert mu_value(fig1_tau4, 2) == 9.0
        assert fig1_tau4.wcet("v4,3") + fig1_tau4.wcet("v4,4") == 9.0


class TestBasicShapes:
    def test_chain_only_mu1(self, chain):
        assert mu_array(chain, 3) == [7.0, 0.0, 0.0]

    def test_diamond(self, diamond):
        assert mu_array(diamond, 4) == [4.0, 5.0, 0.0, 0.0]

    def test_single_node(self, single_node):
        assert mu_array(single_node, 2) == [9.0, 0.0]

    def test_independent_nodes(self):
        dag = DagBuilder().nodes({"a": 5, "b": 3, "c": 1}).build()
        assert mu_array(dag, 4) == [5.0, 8.0, 9.0, 0.0]

    def test_c_larger_than_graph_is_zero(self, diamond):
        assert mu_value(diamond, 10) == 0.0


class TestValidation:
    def test_bad_m(self, diamond):
        with pytest.raises(AnalysisError, match="m must be >= 1"):
            mu_array(diamond, 0)

    def test_bad_c(self, diamond):
        with pytest.raises(AnalysisError, match="c must be >= 1"):
            mu_value(diamond, 0)

    def test_unknown_method(self, diamond):
        with pytest.raises(AnalysisError, match="unknown mu method"):
            mu_array(diamond, 2, method="cplex")  # type: ignore[arg-type]

    def test_accepts_dag_or_task(self, fig1_tasks):
        task = fig1_tasks[0]
        assert mu_array(task, 4) == mu_array(task.graph, 4)


class TestSolverAgreement:
    def test_methods_agree_on_fig1(self, fig1_tasks):
        for task in fig1_tasks:
            reference = mu_array(task, 4, method="search")
            for method in ("ilp", "ilp-paper"):
                assert mu_array(task, 4, method=method) == reference

    def test_search_matches_bruteforce(self, fig1_tasks):
        for task in fig1_tasks:
            for c in range(1, 5):
                assert mu_value(task.graph, c) == mu_bruteforce(task.graph, c)


class TestMuSemantics:
    def test_mu_selects_antichain_not_heaviest_nodes(self):
        """The heaviest pair is ordered, so μ[2] must take a lighter one."""
        dag = (
            DagBuilder()
            .nodes({"big1": 100, "big2": 90, "small": 10})
            .chain("big1", "big2")
            .build()
        )
        # big1/big2 are ordered; parallel pairs: (big1, small), (big2, small)
        assert mu_value(dag, 2) == 110.0

    def test_mu1_is_max_wcet(self, fig1_tau3):
        assert mu_value(fig1_tau3, 1) == 6.0

    def test_bound_adds_in_the_search_order(self):
        """μ[3] is the largest 3-antichain sum in heaviest-first order.

        {p4, p2, p3} sums to 3.1 and is found first. {p2, p1, p0} sums to
        (1.3 + 1.1) + 0.7 = 3.1000000000000005, but a bound that adds the
        remaining nodes apart from the partial weight, 1.3 + (1.1 + 0.7),
        rounds to 3.1 and would prune it.
        """
        dag = (
            DagBuilder()
            .nodes({"p0": 0.7, "p1": 1.1, "p2": 1.3, "p3": 0.1, "p4": 1.7})
            .edge("p0", "p3")
            .edge("p0", "p4")
            .edge("p1", "p4")
            .build()
        )
        assert mu_value(dag, 3).hex() == (3.1000000000000005).hex()
        assert mu_bruteforce(dag, 3).hex() == (3.1000000000000005).hex()


def typed_hex(values):
    return [(type(x), float(x).hex()) for x in values]


class TestMuCotree:
    """The cotree DP returns the search's μ, by type and ``float.hex``,
    and leaves every DAG it cannot split exactly to the search."""

    @staticmethod
    def assert_dp_is_exact(dag, m):
        table = _mu_cotree(dag, m)
        assert table is not None  # series–parallel: the DP always splits
        search = _mu_search(dag)
        for c in range(2, m + 1):
            searched = search(c) if c <= len(dag) else 0.0
            assert typed_hex([table[c]]) == typed_hex([searched])
            assert typed_hex([table[c]]) == typed_hex([mu_bruteforce(dag, c)])
        assert typed_hex(mu_array(dag, m)) == typed_hex([max(dag.node_wcets), *table[2:]])
        assert [mu_value(dag, c) for c in range(1, m + 1)] == mu_array(dag, m)

    @given(series_parallel_dags(), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_trusted_dags(self, dag, m):
        self.assert_dp_is_exact(dag, m)

    @given(series_parallel_dags(shuffled=True), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_public_dags_with_backward_edges(self, dag, m):
        self.assert_dp_is_exact(dag, m)

    def test_table1_comes_from_the_dp(self, fig1_tasks):
        for task in fig1_tasks:
            assert _mu_cotree(task.graph, 4) is not None
            assert mu_array(task, 4) == TABLE1_EXPECTED[task.name]

    def test_just_below_the_exactness_gate(self):
        dag = DAG({"a": 2**52, "b": 2**52 - 1})
        assert _mu_cotree(dag, 2)[2] == mu_bruteforce(dag, 2) == 2.0**53 - 1

    # a->c, b->c, b->d: neither relation splits {a, b, c, d}.
    N_EDGES = [("a", "c"), ("b", "c"), ("b", "d")]

    @pytest.mark.parametrize(
        "nodes, edges",
        [
            pytest.param({"a": 4, "b": 3, "c": 2, "d": 1}, N_EDGES, id="N"),
            pytest.param({"a": 4, "b": 3, "c": 2, "d": 1, "e": 5}, N_EDGES, id="N-beside-a-node"),
            pytest.param({"s": 1, "a": 0.7, "b": 1.1, "c": 1.3, "t": 0.1},
                         [("s", "a"), ("s", "b"), ("s", "c"), ("a", "t"), ("b", "t"), ("c", "t")],
                         id="tenths"),
            pytest.param({"a": 1 / 3, "b": 2 / 3, "c": 4 / 3}, [("a", "c")], id="thirds"),
            pytest.param({"a": 2**52, "b": 2**52}, [], id="volume-2^53"),
        ],
    )
    def test_what_the_dp_cannot_split_exactly_takes_the_search(self, nodes, edges):
        dag = DAG(nodes, edges)
        assert _mu_cotree(dag, 4) is None
        expected = [max(dag.node_wcets)] + [mu_bruteforce(dag, c) for c in range(2, 5)]
        assert typed_hex(mu_array(dag, 4)) == typed_hex(expected)

    def test_split_wcets_take_the_search(self):
        dag = DAG({"s": 10, "a": 7, "b": 5, "t": 2}, [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
        split = split_all_nodes(dag, 4.0)  # 10 -> 3 x 10/3, 7 -> 2 x 3.5, 5 -> 2 x 2.5
        assert _mu_cotree(dag, 4) is not None
        assert _mu_cotree(split, 4) is None
        expected = [max(split.node_wcets)] + [mu_bruteforce(split, c) for c in range(2, 5)]
        assert typed_hex(mu_array(split, 4)) == typed_hex(expected)


class TestSplitSeriesParallelDags:
    """Split series–parallel DAGs: the carried L is the pass's float, and
    the search is the oracle's on fractional parts and equal-WCET ties."""

    overheads = st.one_of(st.just(0.0), st.floats(0.01, 3.0))

    @given(series_parallel_dags(), st.floats(0.5, 30.0), overheads)
    @settings(max_examples=150, deadline=None)
    def test_carried_longest_path_equals_the_pass(self, dag, max_wcet, overhead):
        from repro.graph.paths import longest_path_length

        split = split_all_nodes(dag, max_wcet, overhead)
        if split is not dag:
            assert "_longest_path" in split.__dict__
        public = DAG(dict(zip(split.node_names, split.node_wcets)), split.edges)
        assert longest_path_length(split).hex() == longest_path_length(public).hex()

    @given(series_parallel_dags(max_leaves=6, max_wcet=6), st.floats(1.5, 6.0), overheads)
    @settings(max_examples=100, deadline=None)
    def test_search_equals_bruteforce_bits(self, dag, max_wcet, overhead):
        split = split_all_nodes(dag, max_wcet, overhead)
        search = _mu_search(split)
        for c in range(2, min(len(split), 4) + 1):
            assert search(c).hex() == mu_bruteforce(split, c).hex()

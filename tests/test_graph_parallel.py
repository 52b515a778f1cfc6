"""Unit tests for :mod:`repro.graph.parallel` (the paper's Algorithm 1)."""

import pytest

from repro.exceptions import GraphError
from repro.graph import (
    algorithm1_par_sets,
    is_parallel,
    par_sets_oracle,
    parallel_pairs,
)
from repro.model import DagBuilder


class TestOracle:
    def test_diamond(self, diamond):
        par = par_sets_oracle(diamond)
        assert par["a"] == {"b"}
        assert par["b"] == {"a"}
        assert par["s"] == frozenset()
        assert par["t"] == frozenset()

    def test_chain_has_no_parallelism(self, chain):
        par = par_sets_oracle(chain)
        assert all(not s for s in par.values())

    def test_isolated_nodes_all_parallel(self):
        dag = DagBuilder().nodes({"a": 1, "b": 1, "c": 1}).build()
        par = par_sets_oracle(dag)
        assert par["a"] == {"b", "c"}

    def test_symmetry(self, fig1_tau1):
        par = par_sets_oracle(fig1_tau1)
        for v, others in par.items():
            for w in others:
                assert v in par[w]


class TestPaperWalkthrough:
    """The Par sets the paper computes step by step in Section V-A1."""

    def test_par_v13(self, fig1_tau1):
        par = algorithm1_par_sets(fig1_tau1)
        assert par["v1,3"] == {"v1,2", "v1,4", "v1,5", "v1,7"}

    def test_par_v11_empty(self, fig1_tau1):
        par = algorithm1_par_sets(fig1_tau1)
        assert par["v1,1"] == frozenset()

    def test_par_v17(self, fig1_tau1):
        # The text derives {v1,2, v1,3, v1,6} via the second loop.
        par = algorithm1_par_sets(fig1_tau1)
        assert par["v1,7"] == {"v1,2", "v1,3", "v1,6"}

    def test_tau4_v41_v44_not_parallel(self, fig1_tau4):
        # The pessimism example of Section IV-B3.
        assert not is_parallel(fig1_tau4, "v4,1", "v4,4")


class TestAlgorithm1VsOracle:
    def test_matches_on_fig1(self, fig1_tau1, fig1_tau2, fig1_tau3, fig1_tau4):
        for dag in (fig1_tau1, fig1_tau2, fig1_tau3, fig1_tau4):
            assert algorithm1_par_sets(dag) == par_sets_oracle(dag)

    def test_direct_edge_check_miscounts_sibling_paths(self):
        """The paper's literal line-5 test can overcount (see DESIGN.md).

        In ``v0 -> a, b; a -> c -> b`` the siblings a and b are connected
        through c, so they are *not* parallel; the "direct" variant
        misses that, the default "path" variant does not.
        """
        dag = (
            DagBuilder()
            .nodes({"v0": 1, "a": 1, "b": 1, "c": 1})
            .fork("v0", ["a", "b"])
            .chain("a", "c", "b")
            .build()
        )
        literal = algorithm1_par_sets(dag, edge_check="direct")
        corrected = algorithm1_par_sets(dag, edge_check="path")
        oracle = par_sets_oracle(dag)
        assert corrected == oracle
        assert "b" in literal["a"]          # the overcount
        assert "b" not in oracle["a"]

    def test_invalid_edge_check(self, diamond):
        with pytest.raises(GraphError, match="edge_check"):
            algorithm1_par_sets(diamond, edge_check="bogus")  # type: ignore[arg-type]


class TestPairsAndGraph:
    def test_parallel_pairs_diamond(self, diamond):
        assert parallel_pairs(diamond) == {frozenset(("a", "b"))}

    def test_is_parallel_validates(self, diamond):
        with pytest.raises(GraphError, match="identical"):
            is_parallel(diamond, "a", "a")

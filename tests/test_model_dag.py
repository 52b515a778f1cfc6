"""Unit tests for :mod:`repro.model.dag`."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import repro.model.dag as dag_module
from repro.exceptions import CycleError, ModelError
from repro.generator.dag_gen import random_dag, sequential_dag
from repro.generator.profiles import DagProfile
from repro.graph.paths import longest_path_length
from repro.model import DAG, DAGTask, Node
from repro.rng import default_rng


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


# ----------------------------------------------------------------------
# Trusted construction, structure built on first read
# ----------------------------------------------------------------------
def snapshot(dag):
    """Every accessor's value, with the types of the numbers."""
    names = dag.node_names
    return {
        "len": len(dag),
        "iter": list(dag),
        "names": names,
        "node_wcets": [(w, type(w)) for w in dag.node_wcets],
        "nodes": dag.nodes,
        "node": [dag.node(n) for n in names],
        "wcet": [(dag.wcet(n), type(dag.wcet(n))) for n in names],
        "wcets": dag.wcets(),
        "contains": [n in dag for n in names] + ["zz" in dag],
        "edges": dag.edges,
        "has_edge": [(u, v) for u in names for v in names if dag.has_edge(u, v)],
        "successors": [dag.successors(n) for n in names],
        "predecessors": [dag.predecessors(n) for n in names],
        "siblings": [dag.siblings(n) for n in names],
        "sources": dag.sources,
        "sinks": dag.sinks,
        "order": dag.topological_order,
        "volume": (dag.volume, type(dag.volume)),
        "longest_path": float.hex(longest_path_length(dag)),
    }


def public_twin(dag):
    """The same graph through the checked public constructor."""
    return DAG([Node(n, w) for n, w in zip(dag.node_names, dag.node_wcets)], dag.edges)


def trusted_twin(dag):
    """The same graph through the trusted constructor."""
    rank = {name: i for i, name in enumerate(dag.node_names)}
    links = [(rank[u], rank[v]) for u, v in dag.edges]
    return DAG._trusted(dag.node_names, dag.node_wcets, links)


def no_node(*args, **kwargs):
    raise AssertionError("a Node was built")


def generated(seed, sequential=False, profile=DagProfile()):
    draw = sequential_dag if sequential else random_dag
    return draw(default_rng(seed), profile)


#: Hand-built graphs: forward, backward (Kahn-ordered) and float WCETs.
HAND_BUILT = {
    "diamond": ({"s": 1, "a": 2, "b": 3, "t": 4},
                [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]),
    "backward": ({"c": 3, "b": 2.5, "a": 1},
                 [("a", "b"), ("b", "c"), ("a", "c")]),
    "disconnected": ({"x": 0.5, "y": 7}, []),
}


class TestGeneratedDags:
    """Generated DAGs answer every accessor as the public constructor's
    DAG does, while building their structure only when it is read."""

    @pytest.mark.parametrize("sequential", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_every_accessor_matches_the_public_constructor(self, seed, sequential):
        dag = generated(seed, sequential)
        assert snapshot(dag) == snapshot(public_twin(generated(seed, sequential)))

    @pytest.mark.parametrize("sequential", [False, True])
    def test_carried_volume_and_longest_path_equal_the_computed_ones(self, sequential):
        for seed in range(40):
            dag = generated(seed, sequential)
            carried = dag.__dict__["volume"], dag.__dict__["_longest_path"]
            twin = public_twin(dag)
            assert type(carried[0]) is int and carried[0] == twin.volume
            assert float.hex(carried[1]) == float.hex(longest_path_length(twin))

    def test_past_the_exactness_gate_the_dag_computes_its_own(self):
        profile = DagProfile(wcet_min=2**52, wcet_max=2**53)
        dag = generated(3, profile=profile)
        assert "volume" not in dag.__dict__
        assert "_longest_path" not in dag.__dict__
        twin = public_twin(dag)
        assert dag.volume == twin.volume
        assert float.hex(longest_path_length(dag)) == float.hex(
            longest_path_length(twin))

    def test_size_volume_and_longest_path_build_no_node(self, monkeypatch):
        dag = generated(5)
        monkeypatch.setattr(dag_module, "Node", no_node)
        task = DAGTask("t", dag, period=10 * dag.volume)
        assert (task.q, task.n_nodes) == (len(dag) - 1, len(dag))
        assert task.largest_nprs(3) == sorted(dag.node_wcets, reverse=True)[:3]
        assert task.npr_wcets() == list(dag.node_wcets)
        assert task.volume == dag.volume and task.longest_path > 0
        assert pickle.loads(pickle.dumps(dag)).node_names == dag.node_names

    def test_fp_ideal_and_lp_max_analyses_build_no_node(self, monkeypatch):
        from repro.core.analyzer import AnalysisMethod, analyze_taskset_multi
        from repro.generator import GROUP1, generate_taskset

        monkeypatch.setattr(dag_module, "Node", no_node)
        methods = (AnalysisMethod.FP_IDEAL, AnalysisMethod.LP_MAX)
        for index in range(20):
            taskset = generate_taskset(
                default_rng(2016, spawn_key=(0, index)), 2.0, GROUP1)
            analyze_taskset_multi(taskset, 4, methods)

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, read_first):
        dag = generated(7)
        if read_first:
            snapshot(dag)
        clone = pickle.loads(pickle.dumps(dag))
        assert clone == dag and hash(clone) == hash(dag)
        assert snapshot(clone) == snapshot(generated(7))

    def test_equality_and_hash_across_constructors(self):
        dag = generated(9)
        twin = public_twin(generated(9))
        assert dag == twin and hash(dag) == hash(twin)
        assert dag != generated(10)


class TestHandBuiltDags:
    @pytest.mark.parametrize("case", ["diamond", "disconnected"])
    def test_trusted_arrays_match_the_public_constructor(self, case):
        nodes, edges = HAND_BUILT[case]
        public = DAG(nodes, edges)
        trusted = trusted_twin(public)
        assert snapshot(trusted) == snapshot(public)
        assert trusted == public and hash(trusted) == hash(public)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, case, read_first):
        nodes, edges = HAND_BUILT[case]
        dag = DAG(nodes, edges)
        if read_first:
            snapshot(dag)
        clone = pickle.loads(pickle.dumps(dag))
        assert clone == dag and hash(clone) == hash(dag)
        assert snapshot(clone) == snapshot(DAG(nodes, edges))

    def test_volume_and_longest_path_types(self):
        ints = DAG(*HAND_BUILT["diamond"])
        assert (ints.volume, type(ints.volume)) == (10, int)
        assert (longest_path_length(ints), type(longest_path_length(ints))) == (8.0, float)
        mixed = DAG(*HAND_BUILT["backward"])
        assert (mixed.volume, type(mixed.volume)) == (6.5, float)

    @given(shuffled_dags(), st.lists(st.integers(1, 100), min_size=12, max_size=12))
    def test_forward_arrays_derive_the_public_constructors_structure(self, case, wcets):
        names, edges = case
        assume(all(names.index(u) < names.index(v) for u, v in edges))
        public = DAG(dict(zip(names, wcets)), edges)
        assert snapshot(trusted_twin(public)) == snapshot(public)


class TestPickleAcrossHashSeeds:
    """A DAG pickled in one process hashes as an equal DAG does in the
    process that loads it, whatever either process's hash seed."""

    #: Builds the DAGs, a hand-built and a generated one, with a task
    #: around each; ``DUMP`` pickles them hashed, ``LOAD`` compares.
    BUILD = (
        "import pickle, sys\n"
        "from repro.generator.dag_gen import random_dag\n"
        "from repro.model import DAG, DAGTask\n"
        "from repro.rng import default_rng\n"
        "dags = [DAG({'s': 1, 'a': 2, 'b': 3, 't': 4},\n"
        "            [('s', 'a'), ('s', 'b'), ('a', 't'), ('b', 't')]),\n"
        "        random_dag(default_rng(7))]\n"
        "tasks = [DAGTask(f't{i}', d, period=10 * d.volume) for i, d in enumerate(dags)]\n"
    )
    DUMP = BUILD + (
        "[hash(x) for x in dags + tasks]\n"
        "with open(sys.argv[1], 'wb') as f:\n"
        "    pickle.dump((dags, tasks), f)\n"
    )
    LOAD = BUILD + (
        "with open(sys.argv[1], 'rb') as f:\n"
        "    loaded_dags, loaded_tasks = pickle.load(f)\n"
        "for loaded, fresh in zip(loaded_dags, dags):\n"
        "    assert loaded == fresh\n"
        "    assert hash(loaded) == hash(fresh), 'hash'\n"
        "    assert loaded in {fresh}, 'set membership'\n"
        "    assert loaded.__dict__['volume'] == fresh.volume\n"
        "assert set(loaded_tasks) == set(tasks), 'task set'\n"
        "assert all(t in set(tasks) for t in loaded_tasks), 'task membership'\n"
    )

    def run(self, code, seed, path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("dump_seed, load_seed", [(7, 123), (123, 7)])
    def test_hash_and_sets_follow_the_loading_process(self, tmp_path, dump_seed, load_seed):
        path = tmp_path / "dags.pickle"
        self.run(self.DUMP, dump_seed, path)
        self.run(self.LOAD, load_seed, path)

    def test_pickle_keeps_the_memos_but_not_the_hash(self):
        dag = generated(11)
        hash(dag)
        state = pickle.loads(pickle.dumps(dag)).__dict__
        assert "_hash" not in state
        assert state["volume"] == dag.volume
        assert state["_longest_path"] == longest_path_length(dag)

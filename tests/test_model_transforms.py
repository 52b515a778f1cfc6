"""Unit tests for :mod:`repro.model.transforms`."""

import pytest

from repro.exceptions import ModelError
from repro.graph import longest_path_length, max_parallelism
from repro.model import (
    DAGTask,
    DagBuilder,
    TaskSet,
    scale_periods,
    scale_wcets,
    split_all_nodes,
    split_node,
    with_split_nodes,
)


@pytest.fixture
def taskset(diamond, chain):
    return TaskSet([
        DAGTask("a", diamond, period=50.0, deadline=40.0, priority=0),
        DAGTask("b", chain, period=80.0, priority=1),
    ])


class TestScaling:
    def test_scale_periods(self, taskset):
        scaled = scale_periods(taskset, 2.0)
        assert scaled.task("a").period == 100.0
        assert scaled.task("a").deadline == 80.0
        assert scaled.total_utilization == pytest.approx(
            taskset.total_utilization / 2.0
        )

    def test_scale_periods_preserves_priorities(self, taskset):
        assert scale_periods(taskset, 1.5).names == taskset.names

    def test_scale_periods_invalid_factor(self, taskset):
        with pytest.raises(ModelError):
            scale_periods(taskset, 0.0)

    def test_scale_periods_below_critical_path_rejected(self, taskset):
        # diamond L=8, D=40: factor 0.1 -> D=4 < 8
        with pytest.raises(ModelError):
            scale_periods(taskset, 0.1)

    def test_scale_wcets(self, taskset):
        scaled = scale_wcets(taskset, 0.5)
        assert scaled.task("a").volume == pytest.approx(5.0)
        assert scaled.task("a").period == 50.0
        assert scaled.total_utilization == pytest.approx(
            taskset.total_utilization / 2.0
        )

    def test_scale_wcets_invalid_factor(self, taskset):
        with pytest.raises(ModelError):
            scale_wcets(taskset, -1.0)


class TestSplitNode:
    def test_split_preserves_volume_and_length(self, diamond):
        split = split_node(diamond, "b", 3)
        assert split.volume == diamond.volume
        assert longest_path_length(split) == longest_path_length(diamond)
        assert len(split) == len(diamond) + 2

    def test_split_rewires_edges(self, diamond):
        split = split_node(diamond, "b", 2)
        assert split.has_edge("s", "b#0")
        assert split.has_edge("b#0", "b#1")
        assert split.has_edge("b#1", "t")
        assert "b" not in split

    def test_split_preserves_width(self, diamond):
        # A chain of sub-nodes cannot add parallelism.
        assert max_parallelism(split_node(diamond, "b", 4)) == max_parallelism(
            diamond
        )

    def test_split_exact_wcet_with_rounding(self):
        dag = DagBuilder().node("x", 10).build()
        split = split_node(dag, "x", 3)
        assert split.volume == pytest.approx(10.0)
        assert all(n.wcet > 0 for n in split.nodes)

    def test_split_one_part_renames(self, diamond):
        split = split_node(diamond, "b", 1)
        assert "b#0" in split
        assert split.volume == diamond.volume

    def test_split_unknown_node(self, diamond):
        with pytest.raises(ModelError):
            split_node(diamond, "zz", 2)

    def test_split_bad_parts(self, diamond):
        with pytest.raises(ModelError):
            split_node(diamond, "b", 0)

    def test_split_name_collision(self):
        dag = DagBuilder().nodes({"x": 4, "x#0": 1}).build()
        with pytest.raises(ModelError, match="collides"):
            split_node(dag, "x", 2)


class TestSplitAll:
    def test_threshold_enforced(self, fig1_tau3):
        split = split_all_nodes(fig1_tau3, 2.0)
        assert all(n.wcet <= 2.0 + 1e-9 for n in split.nodes)
        assert split.volume == fig1_tau3.volume

    def test_no_op_when_all_small(self, diamond):
        assert split_all_nodes(diamond, 100.0) == diamond

    def test_bad_threshold(self, diamond):
        with pytest.raises(ModelError):
            split_all_nodes(diamond, 0.0)

    def test_task_level_helper(self, diamond):
        task = DAGTask("t", diamond, period=50.0, priority=3)
        split = with_split_nodes(task, 2.0)
        assert split.priority == 3
        assert split.period == 50.0
        assert split.q > task.q  # more preemption points


class TestBlockingEffectOfSplitting:
    def test_splitting_lp_tasks_reduces_blocking(self, fig1_tasks):
        """Finer NPRs of lower-priority tasks shrink Δ (the LP tradeoff)."""
        from repro.core.blocking import lp_ilp_deltas
        from repro.model.transforms import with_split_nodes

        coarse = lp_ilp_deltas(fig1_tasks, 4)
        fine_tasks = [with_split_nodes(t, 2.0) for t in fig1_tasks]
        fine = lp_ilp_deltas(fine_tasks, 4)
        assert fine[0] <= coarse[0]
        assert fine[1] <= coarse[1]


class TestNonFiniteArguments:
    """A NaN or infinite split argument is one error naming it."""

    @staticmethod
    def dag():
        return DagBuilder().nodes({"a": 10, "b": 30, "c": 7}).edge("a", "b").edge("b", "c").build()

    def test_nan_threshold_is_rejected(self):
        with pytest.raises(ModelError, match=r"^max_wcet must be > 0, got nan$"):
            split_all_nodes(self.dag(), float("nan"))

    @pytest.mark.parametrize("overhead", ["nan", "inf"])
    def test_non_finite_overhead_is_rejected_by_split_all_nodes(self, overhead):
        with pytest.raises(ModelError, match=rf"^overhead must be finite, got {overhead}$"):
            split_all_nodes(self.dag(), 20, float(overhead))

    @pytest.mark.parametrize("overhead", ["nan", "inf"])
    def test_non_finite_overhead_is_rejected_by_split_node(self, overhead):
        with pytest.raises(ModelError, match=rf"^overhead must be finite, got {overhead}$"):
            split_node(self.dag(), "b", 2, float(overhead))

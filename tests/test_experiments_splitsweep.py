"""Unit tests for :mod:`repro.experiments.splitsweep`."""

import pytest

from repro.engine.session import run_job
from repro.exceptions import AnalysisError
from repro.experiments.splitsweep import split_taskset, splitsweep_job
from repro.model import DAGTask, DagBuilder, TaskSet


def _splitsweep(**kwargs):
    return run_job(splitsweep_job(**kwargs))


@pytest.fixture
def taskset(diamond):
    return TaskSet([DAGTask("t", diamond, period=60.0, priority=0)])


class TestSplitTaskset:
    def test_threshold_applied(self, taskset):
        split = split_taskset(taskset, 1.0)
        assert all(
            n.wcet <= 1.0 + 1e-9 for t in split for n in t.graph.nodes
        )

    def test_overhead_inflates_volume(self, taskset):
        base = split_taskset(taskset, 1.0)
        inflated = split_taskset(taskset, 1.0, overhead=0.5)
        assert inflated.total_utilization > base.total_utilization

    def test_bad_threshold(self, taskset):
        with pytest.raises(AnalysisError):
            split_taskset(taskset, 0.0)
        with pytest.raises(AnalysisError):
            split_taskset(taskset, float("inf"))


class TestSweep:
    def test_points_structure(self):
        points = _splitsweep(
            m=2, utilization=1.0, thresholds=[200.0, 50.0],
            n_tasksets=5, seed=3,
        )
        assert [p.threshold for p in points] == [200.0, 50.0]
        for p in points:
            assert 0.0 <= p.ratio <= 1.0
            assert p.mean_q >= 0.0
            assert p.mean_utilization >= 1.0 - 1e-9

    def test_q_grows_as_threshold_shrinks(self):
        points = _splitsweep(
            m=2, utilization=1.0, thresholds=[200.0, 10.0],
            n_tasksets=5, seed=3,
        )
        assert points[1].mean_q >= points[0].mean_q

    def test_overhead_free_never_hurts(self):
        """Within the paper's model, finer NPRs cannot reduce acceptance."""
        points = _splitsweep(
            m=2, utilization=1.0, thresholds=[1000.0, 10.0],
            n_tasksets=8, seed=4, overhead=0.0,
        )
        assert points[1].ratio >= points[0].ratio - 1e-9

    def test_overhead_inflates_mean_utilization(self):
        free = _splitsweep(
            m=2, utilization=1.0, thresholds=[10.0], n_tasksets=5,
            seed=3, overhead=0.0,
        )
        costly = _splitsweep(
            m=2, utilization=1.0, thresholds=[10.0], n_tasksets=5,
            seed=3, overhead=2.0,
        )
        assert costly[0].mean_utilization > free[0].mean_utilization

    def test_empty_thresholds_rejected(self):
        with pytest.raises(AnalysisError):
            _splitsweep(m=2, utilization=1.0, thresholds=[], n_tasksets=3)

"""Unit tests for :mod:`repro.core.interference`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interference import (
    higher_priority_interference,
    lower_priority_interference,
    workload_bound,
)
from repro.exceptions import AnalysisError
from repro.model import DAGTask, DagBuilder


@pytest.fixture
def periodic_task(diamond):
    # vol = 10, L = 8, T = D = 20
    return DAGTask("i", diamond, period=20.0, priority=0)


class TestWorkloadBound:
    def test_zero_window_with_carry_in(self, periodic_task):
        # Even a zero-length window can contain carry-in work when
        # R_i - vol/m > 0: shifted = 0 + 5 - 10/2 = 0 -> no work.
        assert workload_bound(periodic_task, 0.0, 2, response=5.0) == 0.0

    def test_one_full_period(self, periodic_task):
        # shifted = 20 + 5 - 5 = 20 -> 1 whole job + residual 0.
        value = workload_bound(periodic_task, 20.0, 2, response=5.0)
        assert value == 10.0

    def test_residual_capped_by_volume(self, periodic_task):
        # shifted = 15: 0 whole jobs, residual min(10, 2*15) = 10.
        assert workload_bound(periodic_task, 15.0, 2, response=5.0) == 10.0

    def test_residual_dense_execution(self, periodic_task):
        # shifted = 2: min(10, 2*2) = 4.
        assert workload_bound(periodic_task, 2.0, 2, response=5.0) == 4.0

    def test_monotone_in_window(self, periodic_task):
        values = [
            workload_bound(periodic_task, w, 4, response=8.0)
            for w in range(0, 100, 3)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_response(self, periodic_task):
        values = [
            workload_bound(periodic_task, 30.0, 4, response=r)
            for r in range(0, 20, 2)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self, periodic_task):
        with pytest.raises(AnalysisError):
            workload_bound(periodic_task, -1.0, 2, 5.0)
        with pytest.raises(AnalysisError):
            workload_bound(periodic_task, 1.0, 0, 5.0)
        with pytest.raises(AnalysisError):
            workload_bound(periodic_task, 1.0, 2, -5.0)


class TestHigherPriorityInterference:
    def test_empty_hp(self):
        assert higher_priority_interference((), 10.0, 4, {}) == 0.0

    def test_sums_over_tasks(self, diamond):
        t1 = DAGTask("a", diamond, period=20.0, priority=0)
        t2 = DAGTask("b", diamond, period=40.0, priority=1)
        responses = {"a": 10.0, "b": 15.0}
        total = higher_priority_interference([t1, t2], 30.0, 2, responses)
        expected = workload_bound(t1, 30.0, 2, 10.0) + workload_bound(
            t2, 30.0, 2, 15.0
        )
        assert total == expected

    def test_missing_response_rejected(self, periodic_task):
        with pytest.raises(AnalysisError, match="priority order"):
            higher_priority_interference([periodic_task], 10.0, 2, {})


class TestLowerPriorityInterference:
    def test_paper_equation3(self):
        # I_lp = Delta_m + p * Delta_{m-1}
        assert lower_priority_interference(19.0, 15.0, 3) == 19.0 + 3 * 15.0

    def test_zero_preemptions(self):
        assert lower_priority_interference(19.0, 15.0, 0) == 19.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            lower_priority_interference(-1.0, 0.0, 0)
        with pytest.raises(AnalysisError):
            lower_priority_interference(0.0, -1.0, 0)
        with pytest.raises(AnalysisError):
            lower_priority_interference(0.0, 0.0, -1)


class TestInterferenceMemo:
    """The memoised ``I^hp_k`` path must be bit-identical."""

    @staticmethod
    def _taskset(seed: int, utilization: float):
        import numpy as np

        from repro.generator.profiles import GROUP1
        from repro.generator.taskset_gen import generate_taskset

        return generate_taskset(
            np.random.default_rng(seed), utilization, GROUP1
        )

    @given(
        seed=st.integers(0, 2**16),
        utilization=st.sampled_from((0.8, 1.5, 2.5)),
        window=st.floats(0.0, 500.0, allow_nan=False),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_memo_matches_seed_scalar_path(
        self, seed, utilization, window, data
    ):
        from repro.core.interference import InterferenceMemo

        ts = self._taskset(seed, utilization)
        m = 4
        responses = [
            data.draw(
                st.floats(0.0, 300.0, allow_nan=False), label=f"R_{i}"
            )
            for i in range(len(ts))
        ]
        memo = InterferenceMemo(ts, m)
        by_name = {t.name: r for t, r in zip(ts.tasks, responses)}
        for count in range(len(ts) + 1):
            expected = higher_priority_interference(
                ts.tasks[:count], window, m, by_name
            )
            assert memo.interference(count, window, responses[:count]) == expected
            # Memoised re-query returns the identical value.
            assert memo.interference(count, window, responses[:count]) == expected

    def test_preemptions_formula(self, diamond):
        from repro.core.interference import InterferenceMemo
        from repro.model.taskset import TaskSet

        ts = TaskSet([
            DAGTask("hi", diamond, period=20.0, priority=0),
            DAGTask("mid", diamond, period=30.0, priority=1),
            DAGTask("lo", diamond, period=50.0, priority=2),
        ])
        memo = InterferenceMemo(ts, 2)
        # q = |V| - 1 = 3 for the diamond; h over hp periods 20 and 30
        # in a window of 45 is ceil(45/20) + ceil(45/30) = 3 + 2 = 5.
        assert memo.preemptions(2, 45.0) == 3  # min(q=3, h=5)
        assert memo.preemptions(2, 0.0) == 0   # empty window
        assert memo.preemptions(0, 45.0) == 0  # no hp tasks

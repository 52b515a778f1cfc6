"""Unit tests for :mod:`repro.generator.taskset_gen` and utilization/periods."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.generator import (
    GROUP1,
    GROUP2,
    assign_priorities_dm,
    draw_task_utilization,
    generate_task,
    generate_taskset,
)
from repro.generator.periods import period_from_utilization
from repro.generator.profiles import DagProfile, TasksetProfile
from repro.generator.utilization import utilization_ceiling
from repro.model import DAGTask, DagBuilder


class TestUtilizationDraw:
    def test_beta_scaled_chain_pinned_at_beta(self, chain, rng):
        # chain: vol == L, so ceiling = beta.
        assert draw_task_utilization(rng, chain, GROUP1) == GROUP1.beta

    def test_beta_scaled_ceiling(self, diamond):
        # diamond: vol=10, L=8 -> ceiling = 0.5 * 10/8 = 0.625
        assert utilization_ceiling(diamond, GROUP1) == pytest.approx(0.625)

    def test_uniform_mode_ceiling(self, diamond):
        profile = TasksetProfile(
            dag=DagProfile(), utilization_mode="uniform", u_task_max=2.0
        )
        # min(2.0, vol/L) = 1.25
        assert utilization_ceiling(diamond, profile) == pytest.approx(1.25)

    def test_hard_cap_applies(self, diamond):
        profile = TasksetProfile(dag=DagProfile(), u_task_max=0.55)
        assert utilization_ceiling(diamond, profile) == pytest.approx(0.55)

    def test_draw_within_bounds(self, diamond, rng):
        for _ in range(50):
            u = draw_task_utilization(rng, diamond, GROUP1)
            assert GROUP1.beta <= u <= 0.625 + 1e-12


class TestPeriods:
    def test_period_from_utilization(self, diamond):
        assert period_from_utilization(diamond, 0.5) == pytest.approx(20.0)

    def test_bad_utilization(self, diamond):
        with pytest.raises(GenerationError):
            period_from_utilization(diamond, 0.0)


class TestGenerateTask:
    def test_task_valid(self, rng):
        task = generate_task(rng, GROUP1, name="x")
        assert task.name == "x"
        assert task.deadline == task.period  # implicit deadlines
        assert task.longest_path <= task.deadline

    def test_group2_never_sequential(self, rng):
        for _ in range(30):
            task = generate_task(rng, GROUP2)
            # Parallel profile DAGs always fork at the root.
            assert len(task.graph.successors(task.graph.sources[0])) >= 2


class TestGenerateTaskset:
    @pytest.mark.parametrize("target", [0.5, 1.0, 2.0, 4.0])
    def test_total_utilization_exact(self, rng, target):
        ts = generate_taskset(rng, target, GROUP1)
        assert ts.total_utilization == pytest.approx(target)

    def test_priorities_are_dense_from_zero(self, rng):
        ts = generate_taskset(rng, 3.0, GROUP1)
        assert sorted(t.priority for t in ts) == list(range(len(ts)))

    def test_deadline_monotonic_order(self, rng):
        ts = generate_taskset(rng, 3.0, GROUP1)
        deadlines = [t.deadline for t in ts]
        assert deadlines == sorted(deadlines)

    def test_target_must_be_positive(self, rng):
        with pytest.raises(GenerationError):
            generate_taskset(rng, 0.0, GROUP1)

    def test_deterministic_given_seed(self):
        a = generate_taskset(np.random.default_rng(5), 2.0, GROUP1)
        b = generate_taskset(np.random.default_rng(5), 2.0, GROUP1)
        assert a.names == b.names
        assert [t.period for t in a] == [t.period for t in b]

    def test_small_target_single_task(self, rng):
        ts = generate_taskset(rng, 0.1, GROUP1)
        assert len(ts) == 1
        assert ts.total_utilization == pytest.approx(0.1)


class TestPriorityAssignment:
    def test_dm_with_tie_break(self):
        d1 = DagBuilder().node("a", 10).build()
        d2 = DagBuilder().node("b", 20).build()
        t1 = DAGTask("small", d1, period=50.0)
        t2 = DAGTask("large", d2, period=50.0)
        ts = assign_priorities_dm([t1, t2])
        # Same deadline: larger volume first.
        assert ts.names == ("large", "small")

    def test_empty_rejected(self):
        with pytest.raises(GenerationError):
            assign_priorities_dm([])

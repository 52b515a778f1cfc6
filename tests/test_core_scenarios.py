"""Unit tests for :mod:`repro.core.scenarios` (e_m and ρ_k[s_l])."""

import pytest

from repro.core.scenarios import (
    ExecutionScenario,
    execution_scenarios,
    rho_assignment,
    rho_bruteforce,
    rho_ilp,
)
from repro.core.workload import mu_array
from repro.exceptions import AnalysisError
from repro.experiments.figure1 import TABLE2_EXPECTED, TABLE3_EXPECTED


@pytest.fixture
def fig1_mu(fig1_tasks):
    return {t.name: mu_array(t, 4) for t in fig1_tasks}


class TestScenario:
    def test_parts_validated_positive(self):
        with pytest.raises(AnalysisError, match="positive"):
            ExecutionScenario((2, 0))

    def test_parts_validated_sorted(self):
        with pytest.raises(AnalysisError, match="non-increasing"):
            ExecutionScenario((1, 2))

    def test_m_and_cardinality(self):
        s = ExecutionScenario((2, 1, 1))
        assert s.m == 4
        assert s.cardinality == 3

    def test_describe_matches_paper_style(self):
        assert ExecutionScenario((1, 1, 1, 1)).describe() == "4 tasks in 1 core"
        assert ExecutionScenario((4,)).describe() == "1 task in 4 cores"
        assert (
            ExecutionScenario((2, 1, 1)).describe()
            == "1 task in 2 cores, 2 tasks in 1 core"
        )


class TestScenarioEnumeration:
    def test_paper_table2(self):
        scenarios = execution_scenarios(4)
        assert [(s.parts, s.cardinality) for s in scenarios] == [
            (parts, card) for parts, card in sorted(
                TABLE2_EXPECTED, key=lambda pc: pc[0], reverse=True
            )
        ]

    def test_e0_is_empty_scenario(self):
        scenarios = execution_scenarios(0)
        assert len(scenarios) == 1
        assert scenarios[0].parts == ()

    def test_count_matches_partition_function(self):
        from repro.combinatorics import partition_count

        for m in range(0, 10):
            assert len(execution_scenarios(m)) == partition_count(m)

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            execution_scenarios(-1)


class TestPaperTable3:
    def test_assignment_reproduces_table3(self, fig1_mu):
        for scenario in execution_scenarios(4):
            assert rho_assignment(fig1_mu, scenario) == TABLE3_EXPECTED[scenario.parts]

    def test_ilp_reproduces_table3(self, fig1_mu):
        for scenario in execution_scenarios(4):
            assert rho_ilp(fig1_mu, scenario, 4) == TABLE3_EXPECTED[scenario.parts]

    def test_bruteforce_reproduces_table3(self, fig1_mu):
        for scenario in execution_scenarios(4):
            assert rho_bruteforce(fig1_mu, scenario) == TABLE3_EXPECTED[scenario.parts]

    def test_s3_composition(self, fig1_mu):
        """ρ[s3] = μ4[2] + μ2[1] + μ3[1] = 9 + 4 + 6 = 19 (paper text)."""
        assert fig1_mu["tau4"][1] + fig1_mu["tau2"][0] + fig1_mu["tau3"][0] == 19.0


class TestAssignmentSolver:
    def test_empty_inputs(self):
        assert rho_assignment({}, ExecutionScenario((2, 1))) == 0.0
        assert rho_assignment({"t": [5.0, 3.0]}, ExecutionScenario(())) == 0.0

    def test_fewer_tasks_than_parts_keeps_partial(self):
        """Two sequential tasks on a 4-core scenario still block 2 cores.

        The paper's ILP is infeasible here; the assignment solver keeps
        the sound partial bound (see DESIGN.md).
        """
        mu = {"a": [10.0, 0.0, 0.0, 0.0], "b": [7.0, 0.0, 0.0, 0.0]}
        assert rho_assignment(mu, ExecutionScenario((1, 1, 1, 1))) == 17.0
        assert rho_ilp(mu, ExecutionScenario((1, 1, 1, 1)), 4) is None

    def test_task_used_at_most_once(self):
        mu = {"a": [10.0, 20.0]}
        # Only one task: scenario (1,1) can use it once.
        assert rho_assignment(mu, ExecutionScenario((1, 1))) == 10.0

    def test_short_mu_array_rejected(self):
        with pytest.raises(AnalysisError, match="mu array"):
            rho_assignment({"a": [1.0]}, ExecutionScenario((2,)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mu_rejected(self, bad):
        # A Node accepts an infinite WCET, so μ can be infinite.
        mu = {"a": [4.0, 6.0], "b": [bad, 5.0]}
        with pytest.raises(AnalysisError, match="non-finite"):
            rho_assignment(mu, ExecutionScenario((1, 1)))
        # An entry the scenario does not read is not an error.
        assert rho_assignment(mu, ExecutionScenario((2,))) == 6.0


class TestIlpSolver:
    def test_scenario_core_mismatch_rejected(self, fig1_mu):
        with pytest.raises(AnalysisError, match="covers"):
            rho_ilp(fig1_mu, ExecutionScenario((2, 1)), 4)

    def test_empty_tasks_infeasible(self):
        assert rho_ilp({}, ExecutionScenario((2,)), 2) is None

    def test_short_mu_array_rejected(self):
        with pytest.raises(AnalysisError, match="mu array"):
            rho_ilp({"a": [1.0]}, ExecutionScenario((2,)), 2)

    def test_agreement_with_assignment_when_feasible(self, fig1_mu, rng):
        """On random μ data, the paper ILP (when feasible) equals the
        assignment optimum."""
        for _ in range(25):
            n_tasks = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            mu = {
                f"t{i}": sorted(
                    (float(rng.integers(0, 50)) for _ in range(m)), reverse=False
                )
                for i in range(n_tasks)
            }
            # Make arrays plausibly monotone then zero-padded.
            for arr in mu.values():
                cut = int(rng.integers(1, m + 1))
                for j in range(cut, m):
                    arr[j] = 0.0
            for scenario in execution_scenarios(m):
                expected = rho_assignment(mu, scenario)
                via_ilp = rho_ilp(mu, scenario, m)
                brute = rho_bruteforce(mu, scenario)
                assert expected == pytest.approx(brute)
                if via_ilp is not None:
                    assert via_ilp == pytest.approx(expected)

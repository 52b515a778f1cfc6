"""Unit tests for :mod:`repro.core.blocking` (Δ^m, Δ^{m−1})."""

import math

import pytest

from repro.core import blocking
from repro.core.blocking import lp_ilp_deltas, lp_max_deltas
from repro.core.workload import mu_array
from repro.exceptions import AnalysisError
from repro.experiments.figure1 import (
    DELTA3_LP_ILP,
    DELTA3_LP_MAX,
    DELTA4_LP_ILP,
    DELTA4_LP_MAX,
)
from repro.generator.profiles import GROUP1
from repro.generator.taskset_gen import generate_taskset
from repro.model import DAGTask, DagBuilder
from repro.rng import default_rng


class TestPaperExample:
    def test_lp_ilp_deltas(self, fig1_tasks):
        assert lp_ilp_deltas(fig1_tasks, 4) == (DELTA4_LP_ILP, DELTA3_LP_ILP)

    def test_lp_max_deltas(self, fig1_tasks):
        assert lp_max_deltas(fig1_tasks, 4) == (DELTA4_LP_MAX, DELTA3_LP_MAX)

    def test_lp_max_composition(self, fig1_tasks):
        """Δ⁴ = C3,1 + C4,1 + C4,4 + C2,2 = 6+5+5+4 = 20 (paper text)."""
        delta4, _ = lp_max_deltas(fig1_tasks, 4)
        assert delta4 == 6 + 5 + 5 + 4

    def test_ilp_tighter_than_max(self, fig1_tasks):
        ilp = lp_ilp_deltas(fig1_tasks, 4)
        mx = lp_max_deltas(fig1_tasks, 4)
        assert ilp[0] <= mx[0]
        assert ilp[1] <= mx[1]

    def test_rho_solver_variants_agree(self, fig1_tasks):
        assert lp_ilp_deltas(fig1_tasks, 4, rho_solver="ilp") == (
            DELTA4_LP_ILP,
            DELTA3_LP_ILP,
        )


class TestEdgeCases:
    def test_empty_lp_set(self):
        assert lp_max_deltas([], 4) == (0.0, 0.0)
        assert lp_ilp_deltas([], 4) == (0.0, 0.0)

    def test_single_core(self, fig1_tasks):
        """m = 1: Δ^0 must be 0 (no parallel blocking after start)."""
        delta_m, delta_m1 = lp_ilp_deltas(fig1_tasks, 1)
        assert delta_m == 6.0  # the largest single NPR (C3,1)
        assert delta_m1 == 0.0
        mx = lp_max_deltas(fig1_tasks, 1)
        assert mx == (6.0, 0.0)

    def test_bad_m(self, fig1_tasks):
        with pytest.raises(AnalysisError):
            lp_max_deltas(fig1_tasks, 0)
        with pytest.raises(AnalysisError):
            lp_ilp_deltas(fig1_tasks, 0)

    def test_bad_rho_solver(self, fig1_tasks):
        with pytest.raises(AnalysisError, match="unknown rho solver"):
            lp_ilp_deltas(fig1_tasks, 2, rho_solver="cplex")  # type: ignore[arg-type]


class TestSequentialTasksGap:
    """Chains expose LP-max's pessimism: it treats their NPRs as parallel."""

    @pytest.fixture
    def chain_tasks(self):
        tasks = []
        for i, wcets in enumerate(([9, 8, 7], [6, 5, 4])):
            builder = DagBuilder()
            names = [f"c{i}n{j}" for j in range(len(wcets))]
            for name, w in zip(names, wcets):
                builder.node(name, w)
            builder.chain(*names)
            tasks.append(
                DAGTask(f"chain{i}", builder.build(), period=1000.0, priority=i)
            )
        return tasks

    def test_gap_on_chains(self, chain_tasks):
        # LP-max pools 3 largest from each chain: 9+8+7+6 = 30 on m=4.
        mx = lp_max_deltas(chain_tasks, 4)
        assert mx[0] == 30.0
        # LP-ILP knows a chain occupies one core: 9 + 6 = 15.
        ilp = lp_ilp_deltas(chain_tasks, 4)
        assert ilp[0] == 15.0

    def test_mu_cache_reused(self, chain_tasks):
        cache: dict[str, list[float]] = {}
        first = lp_ilp_deltas(chain_tasks, 4, mu_cache=cache)
        assert set(cache) == {"chain0", "chain1"}
        # Tamper with the cache: the function must trust it.
        cache["chain0"] = [100.0, 0.0, 0.0, 0.0]
        second = lp_ilp_deltas(chain_tasks, 4, mu_cache=cache)
        assert second[0] > first[0]

    def test_short_cached_mu_rejected(self, chain_tasks):
        cache = {"chain0": [9.0]}
        with pytest.raises(AnalysisError, match="cached mu"):
            lp_ilp_deltas(chain_tasks, 4, mu_cache=cache)


class TestMonotonicity:
    def test_deltas_grow_with_m(self, fig1_tasks):
        previous = (0.0, 0.0)
        for m in range(1, 6):
            current = lp_ilp_deltas(fig1_tasks, m)
            assert current[0] >= previous[0]
            assert current[1] >= previous[1]
            previous = current

    def test_more_lp_tasks_more_blocking(self, fig1_tasks):
        partial = lp_ilp_deltas(fig1_tasks[:2], 4)
        full = lp_ilp_deltas(fig1_tasks, 4)
        assert full[0] >= partial[0]
        assert full[1] >= partial[1]


def _independent_tasks(n: int) -> list[DAGTask]:
    """``n`` one-node tasks; a test supplies their μ through the cache."""
    return [
        DAGTask(f"t{i}", DagBuilder().node(f"v{i}", 1).build(), period=100.0)
        for i in range(n)
    ]


class TestKnapsackTable:
    """Small non-negative integer μ take the knapsack table; every other
    input keeps the scenario path (DESIGN.md, "Δ in one table")."""

    @pytest.fixture
    def scenario_calls(self, monkeypatch):
        calls: list[tuple[int, str]] = []
        scenario_path = blocking._lp_ilp_single

        def counted(mu_by_task, m, rho_solver):
            calls.append((m, rho_solver))
            return scenario_path(mu_by_task, m, rho_solver)

        monkeypatch.setattr(blocking, "_lp_ilp_single", counted)
        return calls

    def test_integer_mu_take_the_table(self, scenario_calls):
        cache = {"t0": [5, 9.0, 12.0], "t1": [7.0, 7, 0.0]}
        assert lp_ilp_deltas(_independent_tasks(2), 3, mu_cache=cache) == (16.0, 12.0)
        assert scenario_calls == []

    @pytest.mark.parametrize("mu", [
        [2.5, 4.0, 4.0],  # fractional, as split NPRs give
        [-1.0, 6.0, 6.0],  # negative
        [2.0**60, 0.0, 0.0],  # beyond the exactness cap
        [True, 2, 3],  # not a number type
    ], ids=["fractional", "negative", "huge", "bool"])
    def test_other_mu_take_the_scenario_path(self, mu, scenario_calls):
        cache = {"t0": mu, "t1": [3, 5, 6]}
        assert blocking._knapsack_deltas(list(cache.values()), 3) is None
        lp_ilp_deltas(_independent_tasks(2), 3, mu_cache=cache)
        assert scenario_calls == [(3, "assignment"), (2, "assignment")]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_mu_still_raises(self, bad, scenario_calls):
        cache = {"t0": [4, bad], "t1": [3, 5]}
        with pytest.raises(AnalysisError, match="non-finite"):
            lp_ilp_deltas(_independent_tasks(2), 2, mu_cache=cache)
        assert scenario_calls

    def test_ilp_solver_takes_the_scenario_path(self, fig1_tasks, scenario_calls):
        lp_ilp_deltas(fig1_tasks, 4, rho_solver="ilp")
        assert scenario_calls == [(4, "ilp"), (3, "ilp")]

    @pytest.mark.parametrize("m, utilizations", [
        (8, (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),
        (16, (4.0, 8.0, 12.0)),
    ])
    def test_generated_sets_match_the_scenario_path(self, m, utilizations):
        # Every task's lp(k) in real group-1 task-sets: the table is
        # taken, and its terms are the scenario path's, bit for bit.
        for i, utilization in enumerate(utilizations):
            tasks = generate_taskset(default_rng(2016 + i), utilization, GROUP1).tasks
            for k in range(len(tasks) - 1):
                lp = tasks[k + 1:]
                mu = {task.name: mu_array(task, m) for task in lp}
                assert blocking._knapsack_deltas(list(mu.values()), m) is not None
                got = lp_ilp_deltas(lp, m)
                want = tuple(
                    blocking._lp_ilp_single(mu, cores, "assignment")
                    for cores in (m, m - 1)
                )
                assert [d.hex() for d in got] == [d.hex() for d in want], (i, k)

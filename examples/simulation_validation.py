#!/usr/bin/env python3
"""Validate the analysis against the discrete-event simulator.

Run with::

    python examples/simulation_validation.py

For randomly generated task-sets that LP-ILP deems schedulable, run the
eager limited-preemptive global-FP simulator under synchronous periodic
releases and compare the worst observed response time of every task
against its analytic bound. The bound must never be exceeded (the
soundness property of the RTA); the printed slack shows how pessimistic
the analysis is in practice.
"""

from statistics import fmean

from repro import AnalysisMethod, analyze_taskset
from repro.generator import GROUP1, generate_taskset
from repro.rng import default_rng
from repro.sim import simulate, synchronous_periodic_releases

M = 4
rng = default_rng(2016)

print(f"{'task':<8} {'observed R':>11} {'bound R':>9} {'bound/obs':>10}")
print("-" * 42)

validated = 0
ratios = []
attempts = 0
while validated < 8 and attempts < 200:
    attempts += 1
    taskset = generate_taskset(rng, 2.0, GROUP1)
    analysis = analyze_taskset(taskset, M, AnalysisMethod.LP_ILP)
    if not analysis.schedulable:
        continue
    horizon = 4.0 * max(t.period for t in taskset)
    sim = simulate(taskset, M, synchronous_periodic_releases(taskset, horizon))
    assert sim.all_deadlines_met, "BUG: schedulable set missed a deadline in sim"
    for task in taskset:
        observed = sim.max_response(task.name)
        bound = analysis.task(task.name).response
        assert observed <= bound + 1e-6, "BUG: observed response exceeds bound"
        if observed > 0:
            ratios.append(bound / observed)
            print(f"{task.name:<8} {observed:>11.1f} {bound:>9.1f} "
                  f"{bound / observed:>9.2f}x")
    validated += 1
    print("-" * 42)

print(f"\n{validated} schedulable task-sets validated "
      f"({attempts} generated); no bound violated.")
print(f"mean pessimism factor: {fmean(ratios):.2f}x "
      f"(worst {max(ratios):.2f}x)")
print("\nThe gap is expected: the analysis covers *any* legal sporadic")
print("arrival pattern, while the simulation exercises only one.")

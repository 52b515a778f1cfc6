"""Release patterns for simulation runs.

The analysis bounds must hold for *any* legal sporadic arrival
sequence; the simulator therefore accepts an explicit list of releases
and this module provides the two standard generators:

* :func:`synchronous_periodic_releases` — every task releases at 0 and
  then strictly periodically (the classical critical-instant-style
  stress pattern);
* :func:`sporadic_releases` — random inter-arrival inflation above the
  minimum ``T_i`` (legal sporadic behaviour).
"""

from __future__ import annotations

from repro.exceptions import SimulationError
from repro.model.taskset import TaskSet
from repro.rng import Generator

Release = tuple[float, str]


def synchronous_periodic_releases(taskset: TaskSet, horizon: float) -> list[Release]:
    """All tasks release at t=0, then every ``T_i``, up to ``horizon``.

    Returns ``(time, task_name)`` pairs sorted by time (ties by task
    priority order).
    """
    if horizon <= 0:
        raise SimulationError(f"horizon must be > 0, got {horizon}")
    releases: list[Release] = []
    for task in taskset:
        t = 0.0
        while t < horizon:
            releases.append((t, task.name))
            t += task.period
    releases.sort(key=lambda r: (r[0], taskset.rank(r[1])))
    return releases


def sporadic_releases(
    rng: Generator,
    taskset: TaskSet,
    horizon: float,
    max_jitter: float = 0.5,
) -> list[Release]:
    """Sporadic releases: inter-arrival ``T_i · (1 + U[0, max_jitter])``.

    The first release of each task is drawn uniformly in
    ``[0, T_i]`` so tasks are phase-shifted.
    """
    if horizon <= 0:
        raise SimulationError(f"horizon must be > 0, got {horizon}")
    if max_jitter < 0:
        raise SimulationError(f"max_jitter must be >= 0, got {max_jitter}")
    releases: list[Release] = []
    for task in taskset:
        t = float(rng.uniform(0.0, task.period))
        while t < horizon:
            releases.append((t, task.name))
            t += task.period * (1.0 + float(rng.uniform(0.0, max_jitter)))
    releases.sort(key=lambda r: (r[0], taskset.rank(r[1])))
    return releases

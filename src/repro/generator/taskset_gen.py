"""Task and task-set assembly.

A task-set for a target utilisation ``U*`` is assembled by drawing
tasks (DAG shape + individual utilisation per the profile) until the
accumulated utilisation reaches ``U*``; the last task's utilisation is
trimmed so the total matches ``U*`` exactly (trimming only *lowers* a
task's utilisation, i.e. lengthens its period, which keeps it valid).
Priorities are deadline-monotonic (the paper does not state a policy;
DM is the standard choice for constrained-deadline global FP and
reduces to rate-monotonic here because deadlines are implicit).
"""

from __future__ import annotations

from repro.exceptions import GenerationError
from repro.generator.dag_gen import random_dag, sequential_dag
from repro.generator.periods import period_from_utilization
from repro.generator.profiles import GROUP1, TasksetProfile
from repro.generator.utilization import draw_task_utilization
from repro.model.dag import DAG
from repro.model.task import DAGTask
from repro.model.taskset import TaskSet
from repro.rng import Generator

def generate_task(
    rng: Generator,
    profile: TasksetProfile = GROUP1,
    name: str = "tau",
) -> DAGTask:
    """Generate one task: DAG shape, utilisation draw, implied period.

    With probability ``profile.dag.sequential_probability`` the DAG is a
    chain (control-flow task), otherwise a nested fork–join graph
    (data-flow task). The period is ``vol/u`` and the deadline implicit.
    """
    dag = _draw_dag(rng, profile)
    utilization = draw_task_utilization(rng, dag, profile)
    period = period_from_utilization(dag, utilization)
    return DAGTask(name, dag, period=period)


def generate_taskset(
    rng: Generator,
    target_utilization: float,
    profile: TasksetProfile = GROUP1,
) -> TaskSet:
    """Generate a task-set whose total utilisation is ``target_utilization``.

    Parameters
    ----------
    rng:
        Random generator: a :func:`repro.rng.default_rng` stream, or
        anything with numpy ``Generator``'s ``integers``/``random``/``uniform``.
    target_utilization:
        Desired total ``Σ vol_i/T_i`` (> 0). The result matches it to
        float precision.
    profile:
        Group profile (:data:`~repro.generator.profiles.GROUP1` or
        :data:`~repro.generator.profiles.GROUP2`, or a custom one).

    Returns
    -------
    TaskSet
        Deadline-monotonic priorities, re-indexed from 0 (highest).

    Raises
    ------
    GenerationError
        If ``target_utilization`` is not positive.
    """
    if target_utilization <= 0:
        raise GenerationError(
            f"target_utilization must be > 0, got {target_utilization}"
        )

    drawn: list[tuple[DAG, float]] = []
    total = 0.0
    while total < target_utilization - 1e-12:
        dag = _draw_dag(rng, profile)
        utilization = draw_task_utilization(rng, dag, profile)
        remaining = target_utilization - total
        if utilization >= remaining:
            # Trim the last task so the total hits the target exactly;
            # trimming only lowers its utilisation (lengthens its
            # period), so the task stays valid however small the
            # residual is.
            drawn.append((dag, remaining))
            total += remaining
            break
        drawn.append((dag, utilization))
        total += utilization

    # Sorted before the tasks exist (implicit deadlines: D = T), so each
    # task is built once, with its priority.
    named = [
        (f"tau{i + 1}", dag, period_from_utilization(dag, utilization))
        for i, (dag, utilization) in enumerate(drawn)
    ]
    named.sort(key=lambda entry: _dm_key(entry[2], entry[1].volume, entry[0]))
    return TaskSet([
        DAGTask(name, dag, period=period, priority=priority)
        for priority, (name, dag, period) in enumerate(named)
    ])


def assign_priorities_dm(tasks: list[DAGTask]) -> TaskSet:
    """Deadline-monotonic priority assignment, re-indexed from 0.

    Shorter deadline → higher priority; ties broken by volume
    (larger first, so heavyweight tasks are not starved) and then by
    name for determinism.
    """
    if not tasks:
        raise GenerationError("cannot assign priorities to an empty task list")
    ordered = sorted(tasks, key=lambda t: _dm_key(t.deadline, t.volume, t.name))
    return TaskSet(
        [task.with_priority(priority) for priority, task in enumerate(ordered)]
    )


def _dm_key(deadline: float, volume: float, name: str) -> tuple:
    """Deadline-monotonic rank: shorter deadline, then larger volume,
    then name."""
    return (deadline, -volume, name)


def _draw_dag(rng: Generator, profile: TasksetProfile) -> DAG:
    if rng.random() < profile.dag.sequential_probability:
        return sequential_dag(rng, profile.dag)
    return random_dag(rng, profile.dag)

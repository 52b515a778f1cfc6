"""Task and task-set transformations.

Pure functions returning new objects (tasks/DAGs are immutable):

* :func:`scale_periods` / :func:`scale_wcets` — uniform workload
  scaling, the substrate of breakdown-utilisation search;
* :func:`split_node` — insert preemption points by splitting one NPR
  into a chain of equal parts. This is the lever the limited-preemption
  literature (the paper's refs [12], [17], [18]) optimises: more
  preemption points mean less blocking *caused* (smaller ``Δ`` for
  higher-priority tasks) but more preemptions *suffered*
  (``q_k`` grows, so ``p_k · Δ^{m−1}_k`` may grow);
* :func:`split_all_nodes` — apply a WCET threshold across a whole DAG.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.exceptions import ModelError
from repro.model.dag import DAG
from repro.model.node import Node
from repro.model.task import DAGTask
from repro.model.taskset import TaskSet


def scale_periods(taskset: TaskSet, factor: float) -> TaskSet:
    """Multiply every period and deadline by ``factor`` (> 0).

    Raises
    ------
    ModelError
        If ``factor <= 0``, or scaling pushes a deadline below a task's
        critical-path length (the task constructor rejects it).
    """
    if factor <= 0:
        raise ModelError(f"scale factor must be > 0, got {factor}")
    return TaskSet(
        [
            DAGTask(
                task.name,
                task.graph,
                period=task.period * factor,
                deadline=task.deadline * factor,
                priority=task.priority,
            )
            for task in taskset
        ]
    )


def scale_wcets(taskset: TaskSet, factor: float) -> TaskSet:
    """Multiply every node WCET by ``factor`` (> 0); periods unchanged."""
    if factor <= 0:
        raise ModelError(f"scale factor must be > 0, got {factor}")
    scaled_tasks = []
    for task in taskset:
        dag = DAG(
            [Node(node.name, node.wcet * factor) for node in task.graph.nodes],
            task.graph.edges,
        )
        scaled_tasks.append(
            DAGTask(task.name, dag, task.period, task.deadline, task.priority)
        )
    return TaskSet(scaled_tasks)


def split_node(dag: DAG, name: str, parts: int, overhead: float = 0.0) -> DAG:
    """Split NPR ``name`` into a chain of ``parts`` equal sub-NPRs.

    The sub-nodes are named ``{name}#0 .. {name}#parts-1``; incoming
    edges attach to the first, outgoing edges to the last. The original
    WCET is preserved exactly (the last part absorbs rounding), plus an
    optional *resumption overhead* added to every part after the first
    — the context-restore / cache-reload cost a preemption at the new
    point may incur (the preemption-related overhead the paper's
    introduction motivates but its analysis leaves out).

    Parameters
    ----------
    dag:
        Source graph (unchanged).
    name:
        The node to split.
    parts:
        Number of sub-NPRs (≥ 1; 1 returns an equivalent graph with the
        node renamed ``{name}#0``).
    overhead:
        WCET inflation per inserted preemption point (≥ 0); the split
        node's total WCET becomes ``C + (parts − 1) · overhead``.

    Raises
    ------
    ModelError
        On unknown nodes, ``parts < 1``, ``overhead < 0``, or a name
        collision with the generated sub-node names.
    """
    if parts < 1:
        raise ModelError(f"parts must be >= 1, got {parts}")
    if overhead < 0:
        raise ModelError(f"overhead must be >= 0, got {overhead}")
    dag.node(name)
    return _split(dag, lambda node: parts if node.name == name else 0, overhead)


def split_all_nodes(dag: DAG, max_wcet: float, overhead: float = 0.0) -> DAG:
    """Split every NPR heavier than ``max_wcet`` into equal parts.

    Each heavy node is divided into ``ceil(C / max_wcet)`` sub-NPRs, so
    afterwards no *original* work chunk exceeds ``max_wcet`` (the
    optional per-point ``overhead`` comes on top). Models a
    preemption-point placement policy "insert a point at least every
    ``max_wcet`` time units" (cf. the paper's refs [12], [17]).

    The result is built in one pass, and equals :func:`split_node`
    applied to each heavy node in turn, in node order.

    Raises
    ------
    ModelError
        If ``max_wcet <= 0``, or ``overhead < 0`` while some node is
        heavy, or a sub-node name collides as in :func:`split_node`.
    """
    if max_wcet <= 0:
        raise ModelError(f"max_wcet must be > 0, got {max_wcet}")
    return _split(
        dag,
        lambda node: math.ceil(node.wcet / max_wcet) if node.wcet > max_wcet else 0,
        overhead,
    )


def _split(dag: DAG, parts_of: Callable[[Node], int], overhead: float) -> DAG:
    """Replace each node with ``parts_of(node) > 0`` by a chain of that many.

    Node order is kept with each chain in its node's place; the edges
    are the original ones, re-attached to the chains' ends, followed by
    each chain's own edges in node order.  Name collisions are checked
    against the graph as it stands after the earlier splits, so one
    pass matches splitting the nodes one at a time.  Returns ``dag``
    itself when no node is split.
    """
    present = set(dag.node_names)
    chains: dict[str, list[str]] = {}
    nodes: list[Node] = []
    for node in dag.nodes:
        parts = parts_of(node)
        if not parts:
            nodes.append(node)
            continue
        if overhead < 0:
            raise ModelError(f"overhead must be >= 0, got {overhead}")
        sub_names = [f"{node.name}#{i}" for i in range(parts)]
        for sub in sub_names:
            if sub in present:
                raise ModelError(f"split of {node.name!r} collides with existing {sub!r}")
        present.remove(node.name)
        present.update(sub_names)
        share = node.wcet / parts
        running = 0.0
        for i, sub in enumerate(sub_names):
            wcet = share if i < parts - 1 else node.wcet - running
            running += wcet
            if i > 0:
                wcet += overhead
            nodes.append(Node(sub, wcet))
        chains[node.name] = sub_names
    if not chains:
        return dag

    edges = [
        (chains[u][-1] if u in chains else u, chains[v][0] if v in chains else v)
        for u, v in dag.edges
    ]
    for sub_names in chains.values():
        edges.extend(zip(sub_names, sub_names[1:]))
    return DAG(nodes, edges)


def with_split_nodes(
    task: DAGTask, max_wcet: float, overhead: float = 0.0
) -> DAGTask:
    """:func:`split_all_nodes` lifted to a task (period/priority kept)."""
    return DAGTask(
        task.name,
        split_all_nodes(task.graph, max_wcet, overhead=overhead),
        task.period,
        task.deadline,
        task.priority,
    )

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
from collections.abc import Sequence

from repro.exceptions import ModelError
from repro.model.dag import DAG
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
        graph = task.graph
        wcets = {n: w * factor for n, w in zip(graph.node_names, graph.node_wcets)}
        dag = DAG(wcets, graph.edges)
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
        WCET inflation per inserted preemption point (finite, ≥ 0); the
        split node's total WCET becomes ``C + (parts − 1) · overhead``.

    Raises
    ------
    ModelError
        On ``parts < 1``, a negative or non-finite ``overhead``, unknown
        nodes, or a name collision with the generated sub-node names.
    """
    if parts < 1:
        raise ModelError(f"parts must be >= 1, got {parts}")
    _check_overhead(overhead)
    if name not in dag.node_names:
        raise ModelError(f"unknown node {name!r}")
    return _split(dag, [parts if node == name else 0 for node in dag.node_names], overhead)


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
        If ``max_wcet`` is not ``> 0`` (NaN included), or ``overhead`` is
        negative or non-finite while some node is heavy, or a sub-node
        name collides as in :func:`split_node`.
    """
    if not max_wcet > 0:
        raise ModelError(f"max_wcet must be > 0, got {max_wcet}")
    return _split(
        dag,
        [math.ceil(wcet / max_wcet) if wcet > max_wcet else 0 for wcet in dag.node_wcets],
        overhead,
    )


def _check_overhead(overhead: float) -> None:
    if overhead < 0:
        raise ModelError(f"overhead must be >= 0, got {overhead}")
    if not overhead < math.inf:
        raise ModelError(f"overhead must be finite, got {overhead}")


def _split(dag: DAG, counts: Sequence[int], overhead: float) -> DAG:
    """Replace node ``i`` by a chain of ``counts[i]`` parts where it is > 0.

    Node order is kept with each chain in its node's place; the edges
    are the original ones, re-attached to the chains' ends, followed by
    each chain's own edges in node order.  Name collisions are checked
    against the graph as it stands after the earlier splits, so one
    pass matches splitting the nodes one at a time.  Returns ``dag``
    itself when no node is split.  Builds no ``Node`` when every edge
    points forward (DESIGN.md, "Splitting builds only what is read").
    """
    if not any(counts):
        return dag
    _check_overhead(overhead)
    present = set(dag.node_names)
    names: list[str] = []
    wcets: list[float] = []
    spans: list[range] = []  # each node's chain, by index in the result
    for name, wcet, parts in zip(dag.node_names, dag.node_wcets, counts):
        spans.append(range(len(names), len(names) + max(parts, 1)))
        if not parts:
            names.append(name)
            wcets.append(wcet)
            continue
        sub_names = [f"{name}#{i}" for i in range(parts)]
        for sub in sub_names:
            if sub in present:
                raise ModelError(f"split of {name!r} collides with existing {sub!r}")
        present.remove(name)
        present.update(sub_names)
        share = wcet / parts
        running = 0.0
        for i, sub in enumerate(sub_names):
            part = share if i < parts - 1 else wcet - running
            running += part
            if i > 0:
                part += overhead
            if not part > 0:  # the check a ``Node`` makes
                raise ModelError(f"node {sub!r}: WCET must be > 0, got {part!r}")
            wcets.append(part)
        names.extend(sub_names)

    links = dag._index_edges()[1]
    split_links = [(spans[u][-1], spans[v][0]) for u, v in links]
    for span in spans:
        split_links.extend(zip(span, span[1:]))
    if not all(u < v for u, v in links):  # ``_trusted`` needs forward links
        return DAG(dict(zip(names, wcets)), [(names[u], names[v]) for u, v in split_links])
    # The longest-path pass's float operations, in its order: a chain's
    # head adds to the max over its node's parents' tails, then each part.
    parents: list[list[int]] = [[] for _ in spans]
    for u, v in links:
        parents[v].append(u)
    tails: list[float] = []
    for preds, span in zip(parents, spans):
        length = max([tails[u] for u in preds], default=0.0)
        for i in span:
            length += wcets[i]
        tails.append(length)
    return DAG._trusted(names, wcets, split_links, longest_path=max(tails))


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

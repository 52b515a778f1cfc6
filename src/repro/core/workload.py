"""Worst-case parallel workload of one task: ``μ_i[c]`` (paper Section V-A).

Definition 1 of the paper: the worst-case workload of a task executing
on ``c`` cores is the sum of the WCETs of the ``c`` largest NPRs that can
execute in parallel — i.e. the maximum-weight *antichain of exactly size
c* in the task's precedence order (Eq. 6):

    μ_i[c] = Σ max^parallel_c {C_{i,j}}

``μ_i[c] = 0`` when no ``c`` NPRs are pairwise parallel (Table I:
``μ2[3] = μ2[4] = 0``).

Three exact solvers are provided.  For integer WCETs all three return
identical values (asserted in tests) and differ only in mechanics and
cost.  For non-integer WCETs the ILP objectives can differ in the last
bit: the search, like the exhaustive oracle :func:`mu_bruteforce`, sums
each antichain heaviest first and returns the largest such float.

* ``"search"`` (default) — max and max-plus merges along the DAG's
  series–parallel decomposition when its WCETs are integers, else a
  bitmask branch-and-bound over classes of interchangeable NPRs;
  fastest, used by the production analysis path;
* ``"ilp"`` — a clean pairwise-conflict binary ILP
  (``b_j + b_k <= 1`` for every *non*-parallel pair) solved by
  :mod:`repro.ilp`;
* ``"ilp-paper"`` — the paper's Section V-A2 formulation with auxiliary
  ``b_{j,k} = b_j ∧ b_k`` variables. The paper's constraint (2) reads
  ``Σ b_{j,k}·IsPar_{j,k} = c`` but ``c`` mutually-parallel nodes form
  ``c(c−1)/2`` pairs; we implement the evidently intended right-hand
  side ``c(c−1)/2`` (see DESIGN.md, "Known paper issues").
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial
from typing import Literal

from repro.exceptions import AnalysisError
from repro.graph.parallel import par_sets_oracle, parallel_masks
from repro.graph.topology import reach_masks
from repro.ilp import BinaryProgram, solve
from repro.model.dag import DAG
from repro.model.task import DAGTask

MuMethod = Literal["search", "ilp", "ilp-paper"]

_MU_METHODS: tuple[MuMethod, ...] = ("search", "ilp", "ilp-paper")


def mu_array(
    task: DAGTask | DAG,
    m: int,
    method: MuMethod = "search",
) -> list[float]:
    """``μ_i[c]`` for ``c = 1..m`` as a list indexed by ``c − 1``.

    Parameters
    ----------
    task:
        The DAG task (or bare DAG) whose parallel workload is needed.
    m:
        Number of cores; the array has ``m`` entries.
    method:
        Which exact solver to use (see module docstring).

    Returns
    -------
    list of float
        ``[μ[1], μ[2], ..., μ[m]]``; entries beyond the task's maximum
        parallelism are 0.

    Raises
    ------
    AnalysisError
        For ``m < 1`` or an unknown method.
    """
    if m < 1:
        raise AnalysisError(f"core count m must be >= 1, got {m}")
    dag = task.graph if isinstance(task, DAGTask) else task
    mu = _solver(dag, method, m)
    return [mu(c) for c in range(1, m + 1)]


def mu_value(dag: DAG, c: int, method: MuMethod = "search") -> float:
    """``μ[c]`` for a single core count ``c`` (0 when unattainable)."""
    if c < 1:
        raise AnalysisError(f"core count c must be >= 1, got {c}")
    return _solver(dag, method, c)(c)


def _solver(dag: DAG, method: MuMethod, m: int) -> Callable[[int], float]:
    """``c ↦ μ[c]`` for one DAG and ``c <= m``.

    The search takes the cotree DP's table when the DP applies, and
    otherwise builds its own tables once.
    """
    if method not in _MU_METHODS:
        raise AnalysisError(f"unknown mu method {method!r}; choose from {_MU_METHODS}")
    if method == "search":
        table = _mu_cotree(dag, m)
        solve = table.__getitem__ if table is not None else _mu_search(dag)
    elif method == "ilp":
        solve = partial(_mu_ilp_pairwise, dag)
    else:
        solve = partial(_mu_ilp_paper, dag)

    def mu(c: int) -> float:
        if c > len(dag):
            return 0.0
        if c == 1:
            # The paper computes μ[1] directly as the largest NPR.
            return max(dag.node_wcets)
        return solve(c)

    return mu


# ----------------------------------------------------------------------
# the search's exact fast path: max and max-plus on the cotree
# ----------------------------------------------------------------------
#: Integers below this add exactly in a float.
_EXACT = 2**53


def _mu_cotree(dag: DAG, m: int) -> list[float] | None:
    """``μ[c]`` at index ``c`` for ``2 <= c <= m``, or None.

    Splits the node set recursively (DESIGN.md, "μ on the cotree"):

    * parts that the *parallel* relation leaves disconnected are in
      series, so an antichain lies within one part: μ is the entrywise
      max of the parts';
    * parts that the *comparability* relation leaves disconnected run
      in parallel, so an antichain is a union of antichains of the
      parts: μ is the max-plus merge of the parts'.

    A part split by one relation is connected in it, so its own parts
    are split by the other.  Returns None, leaving the caller to the
    search, when a set neither relation splits (the DAG holds an "N")
    or when the sums may be inexact: every WCET must be an int or an
    integer-valued float and the volume below 2^53.  Then every sum is
    an exact integer, and ``float`` of the maximum is the search's
    float.  Entries past the width are 0.0; entries 0 and 1 are unused.
    """
    wcets = dag.node_wcets
    for wcet in wcets:
        kind = type(wcet)
        if kind is float:
            if not wcet.is_integer():
                return None
        elif kind is not int:
            return None
    if not dag.volume < _EXACT:
        return None
    bits = [1 << i for i in range(len(wcets))]
    comparable = [below | above for below, above in zip(*reach_masks(dag, bits))]
    full = (1 << len(wcets)) - 1
    par = [full ^ mask ^ bit for mask, bit in zip(comparable, bits)]
    # Top-down, each split set after the set it came from.
    splits: list[tuple[int, list[int], bool]] = []
    pending: list[tuple[int, bool | None]] = [(full, None)]
    while pending:
        nodes, in_series = pending.pop()
        if not nodes & (nodes - 1):
            continue  # one node (or none)
        if in_series is None:  # the whole DAG: either relation may split it
            parts = _components(nodes, par)
            in_series = len(parts) > 1
            if not in_series:
                parts = _components(nodes, comparable)
        else:
            parts = _components(nodes, par if in_series else comparable)
        if len(parts) == 1:
            return None
        splits.append((nodes, parts, in_series))
        pending.extend((part, not in_series) for part in parts)
    # Bottom-up: ``tables[S][c]`` is μ of node set S, for c up to its
    # width (capped at m), with ``tables[S][0] = 0``.
    tables: dict[int, list[float]] = {bit: [0, w] for bit, w in zip(bits, wcets)}
    for nodes, parts, in_series in reversed(splits):
        if in_series:
            merged = [0] * max(len(tables[part]) for part in parts)
            for part in parts:
                for c, value in enumerate(tables[part]):
                    if value > merged[c]:
                        merged[c] = value
        else:
            merged = tables[parts[0]]
            for part in parts[1:]:
                merged = _max_plus(merged, tables[part], m)
        tables[nodes] = merged
    top = tables.get(full, ())
    return [float(top[c]) if c < len(top) else 0.0 for c in range(m + 1)]


def _components(nodes: int, adjacency: Sequence[int]) -> list[int]:
    """The connected components of ``adjacency`` restricted to ``nodes``."""
    parts = []
    rest = nodes
    while rest:
        part = frontier = rest & -rest
        rest ^= part
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = adjacency[low.bit_length() - 1] & rest
            if grown:
                rest ^= grown
                part |= grown
                frontier |= grown
        parts.append(part)
    return parts


def _max_plus(a: list[float], b: list[float], m: int) -> list[float]:
    """``out[c] = max(a[i] + b[c − i])``: μ of two parts in parallel."""
    size = min(len(a) + len(b) - 1, m + 1)
    out = a[:size] + [0] * (size - len(a))  # b[0] = 0
    for j in range(1, len(b)):
        y = b[j]
        for i in range(min(len(a), size - j)):
            if a[i] + y > out[i + j]:
                out[i + j] = a[i] + y
    return out


# ----------------------------------------------------------------------
# solver 1: bitmask branch-and-bound over antichains
# ----------------------------------------------------------------------
def _mu_search(dag: DAG) -> Callable[[int], float]:
    """Maximum-weight antichain of exactly ``c`` nodes, or 0 if none.

    Returns the search as a function of ``c``; the node order, weights
    and parallelism masks it reads are built once per DAG.

    The search runs on a quotient of the DAG.  Nodes that share one
    parallel set ``Par(v)`` are pairwise ordered and interchangeable in
    any antichain, so each such class is kept as a single node: its
    first member in (−WCET, name) order, i.e. its heaviest.  A chain of
    split sub-NPRs collapses to one node, and so does a sequential task.

    Nodes are ordered by decreasing WCET, and each antichain's weight is
    summed in that order.  The search keeps a bitmask of nodes still
    compatible with the current partial antichain and prunes on
    (a) not enough compatible nodes left, and (b) an optimistic bound
    failing to beat the incumbent.  The bound adds the ``c − k``
    heaviest remaining compatible nodes to the current weight one at a
    time, in the search's own order, so rounding never lowers it below
    a sum the search can reach.  The result is the largest such float
    sum over all ``c``-antichains of the full DAG (DESIGN.md, "μ over
    classes of interchangeable NPRs").
    """
    names, wcets = dag.node_names, dag.node_wcets
    order = sorted(range(len(names)), key=lambda i: (-wcets[i], names[i]))
    heaviest: dict[int, int] = {}  # Par over ``order`` -> first position
    for position, par in enumerate(parallel_masks(dag, order)):
        heaviest.setdefault(par, position)
    positions = list(heaviest.values())
    weights = [wcets[order[p]] for p in positions]
    # Par restricted to the classes: bit ``j`` for the ``j``-th class.
    masks = [sum(1 << j for j, p in enumerate(positions) if par >> p & 1) for par in heaviest]
    n = len(positions)

    def optimistic(start: int, candidates: int, need: int, weight: float) -> float:
        bits = candidates >> start
        i = start
        while bits and need:
            if bits & 1:
                weight += weights[i]
                need -= 1
            bits >>= 1
            i += 1
        return float("-inf") if need else weight

    def mu(c: int) -> float:
        best = float("-inf")

        def search(start: int, candidates: int, chosen: int, weight: float) -> None:
            nonlocal best
            if chosen == c:
                best = max(best, weight)
                return
            need = c - chosen
            if optimistic(start, candidates, need, weight) <= best:
                return
            for i in range(start, n - need + 1):
                if not (candidates >> i) & 1:
                    continue
                search(i + 1, candidates & masks[i], chosen + 1, weight + weights[i])

        search(0, (1 << n) - 1, 0, 0.0)
        return max(best, 0.0)  # 0 when no c-antichain exists

    return mu


# ----------------------------------------------------------------------
# solver 2: pairwise-conflict ILP
# ----------------------------------------------------------------------
def _mu_ilp_pairwise(dag: DAG, c: int) -> float:
    """μ[c] via a binary ILP with one conflict constraint per ordered pair."""
    par = par_sets_oracle(dag)
    program = BinaryProgram(maximize=True)
    names = list(dag.node_names)
    for name in names:
        program.add_var(name, objective=dag.wcet(name))
    program.add_constraint({name: 1.0 for name in names}, "==", c, name="pick c nodes")
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            if v not in par[u]:
                program.add_constraint(
                    {u: 1.0, v: 1.0}, "<=", 1, name=f"conflict {u}/{v}"
                )
    solution = solve(program)
    if not solution.is_optimal:
        return 0.0
    return solution.objective


# ----------------------------------------------------------------------
# solver 3: the paper's Section V-A2 formulation
# ----------------------------------------------------------------------
def _mu_ilp_paper(dag: DAG, c: int) -> float:
    """μ[c] via the paper's formulation with ``b_{j,k}`` auxiliaries.

    Variables: ``b_j`` per node, ``b_{j,k}`` per unordered pair.
    Constraints: ``Σ b_j = c``; ``Σ b_{j,k}·IsPar_{j,k} = c(c−1)/2``
    (corrected RHS, see module docstring); linking
    ``b_{j,k} >= b_j + b_k − 1``, ``b_{j,k} <= b_j``, ``b_{j,k} <= b_k``.
    Objective: ``max Σ C_j · b_j``.
    """
    par = par_sets_oracle(dag)
    names = list(dag.node_names)
    program = BinaryProgram(maximize=True)
    for name in names:
        program.add_var(f"b[{name}]", objective=dag.wcet(name))
    pair_names: list[tuple[str, str, bool]] = []
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            program.add_var(f"b[{u},{v}]")
            pair_names.append((u, v, v in par[u]))

    program.add_constraint(
        {f"b[{name}]": 1.0 for name in names}, "==", c, name="pick c nodes"
    )
    parallel_pair_coeffs = {
        f"b[{u},{v}]": 1.0 for u, v, is_par in pair_names if is_par
    }
    required_pairs = c * (c - 1) // 2
    if parallel_pair_coeffs:
        program.add_constraint(
            parallel_pair_coeffs, "==", required_pairs, name="all pairs parallel"
        )
    elif required_pairs > 0:
        # No parallel pair exists at all, but c >= 2 of them are needed.
        return 0.0
    for u, v, _ in pair_names:
        pair = f"b[{u},{v}]"
        bu, bv = f"b[{u}]", f"b[{v}]"
        program.add_constraint(
            {pair: 1.0, bu: -1.0, bv: -1.0}, ">=", -1, name=f"and-lb {pair}"
        )
        program.add_constraint({pair: 1.0, bu: -1.0}, "<=", 0, name=f"and-ub1 {pair}")
        program.add_constraint({pair: 1.0, bv: -1.0}, "<=", 0, name=f"and-ub2 {pair}")

    solution = solve(program)
    if not solution.is_optimal:
        return 0.0
    return solution.objective


def mu_bruteforce(dag: DAG, c: int) -> float:
    """Exhaustive μ[c] oracle over all antichains (tests only).

    Each antichain is summed heaviest first, the order in which the
    search adds it, so the oracle defines μ's float value for
    non-integer WCETs too.
    """
    from repro.graph.properties import antichains

    best = 0.0
    found = False
    for chain in antichains(dag, max_size=c):
        if len(chain) == c:
            weight = 0.0
            for wcet in sorted((dag.wcet(v) for v in chain), reverse=True):
                weight += wcet
            if not found or weight > best:
                best = weight
                found = True
    return best if found else 0.0

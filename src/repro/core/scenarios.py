"""Execution scenarios and the overall worst-case workload ``ρ_k[s_l]``.

Paper Section IV-B2 / V-B: an *execution scenario* ``s_l ∈ e_m`` fixes
how many cores each lower-priority task occupies — mathematically, an
integer partition of ``m`` (Table II lists ``e_4``). For a scenario the
*overall worst-case workload* is (Eq. 7):

    ρ_k[s_l] = Σ max^{s_l}_{|s_l|} {μ_i}

i.e. pick ``|s_l|`` distinct tasks of ``lp(k)``, give each one part
(core count) of the partition, and maximise the summed ``μ_i[c]``.

Solvers
-------
* :func:`rho_assignment` (default) — exact rectangular assignment by
  Crouse's shortest augmenting path, a pure-Python port of
  ``scipy.optimize.linear_sum_assignment``. Parts may stay idle when
  ``lp(k)`` has fewer tasks than parts, which keeps the bound *sound*
  for small task-sets (see DESIGN.md, "Known paper issues");
* :func:`rho_ilp` — the paper's Section V-B ILP verbatim; its
  constraints force every part to be used by a distinct task and return
  ``None`` when that is infeasible;
* :func:`rho_bruteforce` — exhaustive oracle for tests.

With non-negative μ the assignment optimum equals the paper ILP optimum
whenever the latter is feasible (leaving a part idle never helps), which
tests assert on random instances.

The LP-ILP bound needs only the largest ρ over all of ``e_m``. For
small non-negative integer μ, :mod:`repro.core.blocking` reads that
maximum off one knapsack table over per-task core counts, bit for bit
the maximum of :func:`rho_assignment`; the per-scenario solvers serve
every other input, the Table II/III reproduction and the tests
(DESIGN.md, "Δ in one table").

The port keeps scipy's tie-breaking and numpy's summation order, so ρ
is the float scipy and numpy gave, bit for bit; both are only test
oracles (see DESIGN.md, "Bit-identical ρ without SciPy" and "A
stdlib-only runtime").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

from repro.exceptions import AnalysisError
from repro.combinatorics.partitions import partitions
from repro.ilp import BinaryProgram, solve


@dataclass(frozen=True, slots=True)
class ExecutionScenario:
    """One scenario ``s_l``: a partition of ``m`` into per-task core counts.

    Attributes
    ----------
    parts:
        Non-increasing core counts, e.g. ``(2, 1, 1)``.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 1 for p in self.parts):
            raise AnalysisError(f"scenario parts must be positive: {self.parts}")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise AnalysisError(f"scenario parts must be non-increasing: {self.parts}")

    @property
    def m(self) -> int:
        """Total number of cores covered by the scenario."""
        return sum(self.parts)

    @property
    def cardinality(self) -> int:
        """``|s_l|``: how many distinct tasks execute in the scenario."""
        return len(self.parts)

    def describe(self) -> str:
        """Human-readable description in the style of the paper's Table II."""
        if not self.parts:
            return "no task runs"
        from collections import Counter

        counts = Counter(self.parts)
        bits = []
        for cores in sorted(counts, reverse=True):
            n_tasks = counts[cores]
            plural = "s" if n_tasks > 1 else ""
            bits.append(f"{n_tasks} task{plural} in {cores} core{'s' if cores > 1 else ''}")
        return ", ".join(bits)


def execution_scenarios(m: int) -> list[ExecutionScenario]:
    """``e_m``: every execution scenario for ``m`` cores (paper Table II).

    ``m = 0`` returns the single empty scenario (used for ``Δ^{m−1}``
    when ``m = 1``: no lower-priority NPR can block after the first
    preemption point because there are no other cores).
    """
    if m < 0:
        raise AnalysisError(f"core count m must be >= 0, got {m}")
    return [ExecutionScenario(parts) for parts in partitions(m)]


# ----------------------------------------------------------------------
# solver 1: rectangular assignment (default, sound for every input)
# ----------------------------------------------------------------------
def rho_assignment(
    mu_by_task: dict[str, list[float]],
    scenario: ExecutionScenario,
) -> float:
    """``ρ_k[s_l]`` by maximum-weight rectangular assignment.

    Builds the ``tasks × parts`` value matrix ``V[i, t] = μ_i[c_t]`` and
    finds the maximum-weight matching; the smaller side is fully
    matched, so surplus parts stay idle (sound) and surplus tasks stay
    unused (required: one task contributes at most once).

    The matching comes from :func:`_max_weight_matching`, a port of
    ``scipy.optimize.linear_sum_assignment`` that breaks ties the same
    way. The picked ``μ`` are summed in ascending task order by
    :func:`_numpy_sum`, numpy's pairwise rule, which regroups the terms
    from eight on, so the result is bit for bit ``V[rows, cols].sum()``
    over scipy's ``(rows, cols)``.

    Parameters
    ----------
    mu_by_task:
        ``μ_i`` arrays (length ≥ max part) keyed by task name.
    scenario:
        The partition of ``m``.

    Returns
    -------
    float
        The maximal summed workload; 0.0 for an empty scenario or an
        empty ``lp(k)``.

    Raises
    ------
    AnalysisError
        When a ``μ_i`` array is too short for the scenario, or when an
        entry the scenario reads is NaN or infinite.
    """
    parts = scenario.parts
    if not mu_by_task or not parts:
        return 0.0
    top = parts[0]
    value = []
    for name, mu in mu_by_task.items():
        if len(mu) < top:
            raise AnalysisError(
                f"mu array of task {name!r} has {len(mu)} entries, "
                f"but the scenario needs mu[{top}]"
            )
        row = [mu[part - 1] for part in parts]
        if not all(map(isfinite, row)):
            raise AnalysisError(f"mu array of task {name!r} has a non-finite entry: {row}")
        value.append(row)
    pairs = _max_weight_matching(value)
    return _numpy_sum([value[i][j] for i, j in pairs])


def _numpy_sum(terms: list[float]) -> float:
    """``float(np.array(terms, dtype=float).sum())``, bit for bit.

    numpy 2 adds its pairwise sum to the reduction's identity ``0.0``.
    The pairwise sum adds fewer than 8 terms left to right from
    ``-0.0``; 8 to 128 terms in eight running sums ``r[k] += x[i + k]``,
    combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` before the
    remaining ``n % 8`` terms are added left to right; and more terms
    as the sum of two halves split at a multiple of 8.
    """
    return 0.0 + _pairwise_sum(terms)


def _pairwise_sum(terms: list[float]) -> float:
    n = len(terms)
    if n < 8:
        total = -0.0
        for term in terms:
            total += term
        return total
    if n <= 128:
        sums = [float(term) for term in terms[:8]]
        tail = n - n % 8
        for start in range(8, tail, 8):
            for k in range(8):
                sums[k] += terms[start + k]
        total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + (
            (sums[4] + sums[5]) + (sums[6] + sums[7])
        )
        for term in terms[tail:]:
            total += term
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _max_weight_matching(value: list[list[float]]) -> list[tuple[int, int]]:
    """Maximum-weight matching of the smaller side of ``value``.

    Returns the matched ``(row, column)`` pairs in ascending row order:
    what ``scipy.optimize.linear_sum_assignment(value, maximize=True)``
    returns, pair for pair. It is Crouse's shortest augmenting path
    (D. F. Crouse, "On implementing 2D rectangular assignment
    algorithms", IEEE TAES 2016) on the negated matrix, transposed when
    it has more rows than columns, ported step for step from scipy: the
    same scan order, tie-breaking and dual updates, so equal-weight
    optima resolve to the same pairs.
    """
    transpose = len(value[0]) < len(value)
    if transpose:
        cost = [[-x for x in col] for col in zip(*value)]
    else:
        cost = [[-x for x in row] for row in value]
    nr = len(cost)
    nc = len(cost[0])
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Shortest path from row ``cur`` to an unmatched column.
        spc = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        rows_seen = []
        cols_seen = []
        min_val = 0.0
        i = cur
        while True:
            rows_seen.append(i)
            row = cost[i]
            ui = u[i]
            index = -1
            lowest = inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                else:
                    r = spc[j]
                # On a tie, a later unmatched column wins: it ends the path.
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            last = remaining.pop()
            if index < len(remaining):
                remaining[index] = last
            i = row4col[j]
            if i == -1:
                break
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        # Augment along the path; ``j`` is the sink.
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return sorted(zip(col4row, range(nr)))
    return list(enumerate(col4row))


# ----------------------------------------------------------------------
# solver 2: the paper's Section V-B ILP
# ----------------------------------------------------------------------
def rho_ilp(
    mu_by_task: dict[str, list[float]],
    scenario: ExecutionScenario,
    m: int,
    floor: float | None = None,
) -> float | None:
    """``ρ_k[s_l]`` via the paper's ILP; ``None`` when infeasible.

    ``floor`` warm-starts the branch-and-bound with a workload value
    already achieved by another scenario: assignments that cannot beat
    it are pruned, and ``None`` is returned when nothing better exists
    (the caller keeps its running maximum, so the portfolio result is
    unchanged — only cheaper).

    Variables ``w_i^c`` select "task ``τ_i`` contributes with ``c``
    cores". Constraints (paper Section V-B):

    1. ``Σ_{c} Σ_{i} w_i^c = |s_l|`` — exactly ``|s_l|`` tasks contribute;
    2. ``Σ_c w_i^c <= 1`` per task — a task appears at most once;
    3. ``Σ_i w_i^c >= 1`` for each distinct ``c ∈ s_l`` — every core
       count of the scenario is used;
    4. ``Σ_{c} Σ_{i} c · w_i^c = m`` — all ``m`` cores are covered.

    Objective: ``max Σ w_i^c · μ_i[c]``.

    Note the feasibility caveat discussed in the module docstring: with
    ``|lp(k)| < |s_l|`` (or insufficient parallelism) the instance is
    infeasible and the scenario contributes nothing.
    """
    if scenario.m != m:
        raise AnalysisError(
            f"scenario covers {scenario.m} cores but m={m} was requested"
        )
    if not scenario.parts:
        return 0.0
    if not mu_by_task:
        return None
    names = list(mu_by_task)
    for name in names:
        if len(mu_by_task[name]) < m:
            raise AnalysisError(
                f"mu array of task {name!r} has {len(mu_by_task[name])} entries, "
                f"need {m}"
            )

    program = BinaryProgram(maximize=True)
    for name in names:
        for c in range(1, m + 1):
            program.add_var(f"w[{name},{c}]", objective=mu_by_task[name][c - 1])

    all_vars = {f"w[{name},{c}]": 1.0 for name in names for c in range(1, m + 1)}
    program.add_constraint(all_vars, "==", scenario.cardinality, name="|s_l| tasks")
    for name in names:
        program.add_constraint(
            {f"w[{name},{c}]": 1.0 for c in range(1, m + 1)},
            "<=",
            1,
            name=f"task {name} at most once",
        )
    for c in sorted(set(scenario.parts)):
        program.add_constraint(
            {f"w[{name},{c}]": 1.0 for name in names},
            ">=",
            1,
            name=f"core count {c} used",
        )
    program.add_constraint(
        {f"w[{name},{c}]": float(c) for name in names for c in range(1, m + 1)},
        "==",
        m,
        name="all m cores covered",
    )

    solution = solve(program, incumbent=floor)
    if not solution.is_optimal:
        return None
    return solution.objective


# ----------------------------------------------------------------------
# solver 3: exhaustive oracle (tests)
# ----------------------------------------------------------------------
def rho_bruteforce(
    mu_by_task: dict[str, list[float]],
    scenario: ExecutionScenario,
) -> float:
    """Exhaustive ρ oracle: try every injective parts→tasks mapping.

    Exponential; for test fixtures only. Semantics match
    :func:`rho_assignment` (parts may stay idle).
    """
    from itertools import permutations

    names = list(mu_by_task)
    parts = scenario.parts
    if not names or not parts:
        return 0.0
    best = 0.0
    k = min(len(names), len(parts))
    # Choose which k parts are used (when tasks are scarce) and which
    # tasks take them; with mu >= 0 using as many parts as possible is
    # optimal, so trying all k-subsets of parts is exhaustive.
    from itertools import combinations

    for part_subset in combinations(range(len(parts)), k):
        for task_subset in permutations(names, k):
            total = 0.0
            for part_idx, name in zip(part_subset, task_subset):
                total += mu_by_task[name][parts[part_idx] - 1]
            best = max(best, total)
    return best

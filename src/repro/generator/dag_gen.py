"""Random DAG construction: nested fork–join expansion.

Follows the simulation environment of Melani et al. [10] as
parameterised in the paper's Section VI-A. A DAG grows recursively:
each expansion step either terminates in a single NPR (probability
``p_term``) or forks into 2..``n_par_max`` parallel sub-branches
(probability ``p_par``) that re-join afterwards. Fork nesting is
bounded so the longest path stays within ``max_path_nodes`` (paper: 7
nodes), and the total node count is capped at ``max_nodes`` (paper:
30). WCETs are drawn uniformly from ``[wcet_min, wcet_max]``.

All graphs produced are single-source, single-sink and weakly connected
(the OpenMP task-graph shape); :func:`sequential_dag` produces the
chain-shaped control-flow tasks of the paper's first task-set group.

Both build the DAG through its trusted constructor: names are unique
and edges point forward by construction, so nothing is re-checked, and
the volume and longest path are carried out of the construction into
the DAG's memos (DESIGN.md, "Generation builds only what is read").
"""

from __future__ import annotations

from functools import lru_cache

from repro.exceptions import GenerationError
from repro.generator.profiles import DagProfile
from repro.model.dag import DAG
from repro.rng import Generator

#: Integers below this add exactly in a float.
_EXACT = 2**53


def random_dag(
    rng: Generator,
    profile: DagProfile = DagProfile(),
    name_prefix: str = "v",
) -> DAG:
    """Generate one fork–join DAG according to ``profile``.

    Parameters
    ----------
    rng:
        Random generator (all randomness flows through it): a
        :func:`repro.rng.default_rng` stream, or anything with numpy
        ``Generator``'s ``integers``/``random``.
    profile:
        Shape parameters (see :class:`~repro.generator.profiles.DagProfile`).
    name_prefix:
        Node names are ``f"{name_prefix}{ordinal}"`` in creation order.

    Returns
    -------
    DAG
        A single-source, single-sink DAG with at most
        ``profile.max_nodes`` nodes and no path longer than
        ``profile.max_path_nodes`` nodes.
    """
    builder = _Builder(rng, profile)
    _, _, longest = builder.expand(depth=0)
    wcets = builder.wcets
    return _generated(profile, name_prefix, wcets, builder.links, sum(wcets), longest)


def sequential_dag(
    rng: Generator,
    profile: DagProfile = DagProfile(),
    name_prefix: str = "v",
) -> DAG:
    """Generate a chain-shaped DAG (a control-flow / sequential task).

    The chain length is uniform in
    ``[profile.seq_min_nodes, profile.seq_max_nodes]`` and WCETs follow
    the profile's uniform range.
    """
    length = int(rng.integers(profile.seq_min_nodes, profile.seq_max_nodes + 1))
    wcets = [_draw_wcet(rng, profile) for _ in range(length)]
    links = [(i, i + 1) for i in range(length - 1)]
    volume = sum(wcets)
    return _generated(profile, name_prefix, wcets, links, volume, volume)


def _draw_wcet(rng: Generator, profile: DagProfile) -> int:
    return int(rng.integers(profile.wcet_min, profile.wcet_max + 1))


def _generated(
    profile: DagProfile,
    prefix: str,
    wcets: list[int],
    links: list[tuple[int, int]],
    volume: int,
    longest: int,
) -> DAG:
    """The DAG of one construction: node ``i`` is ``f"{prefix}{i + 1}"``.

    ``volume`` and ``longest`` are integer sums of at most
    ``max_nodes`` WCETs of at most ``wcet_max`` each.  Below 2^53 every
    such sum, and every partial sum of the longest-path pass, is exact
    in a float, so ``volume`` is what ``sum`` gives and ``float(longest)``
    what the pass gives: both seed the DAG's memos.  Above it the DAG
    computes them itself.
    """
    names = _node_names(prefix, len(wcets))
    if profile.max_nodes * profile.wcet_max < _EXACT:
        return DAG._trusted(
            names, wcets, links, volume=volume, longest_path=float(longest)
        )
    return DAG._trusted(names, wcets, links)


@lru_cache(maxsize=256)
def _node_names(prefix: str, count: int) -> tuple[str, ...]:
    """Names of a ``count``-node DAG, shared by every DAG of that size."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


class _Builder:
    """Mutable state of one recursive expansion.

    Nodes are indexes in creation order: ``wcets[i]`` is node ``i``'s
    WCET and ``links`` holds the edges as ``(source, destination)``
    index pairs, each pointing forward.
    """

    def __init__(self, rng: Generator, profile: DagProfile) -> None:
        self.rng = rng
        self.profile = profile
        # Read once per node: kept off the profile's property.
        self.max_nesting = profile.max_nesting
        self.wcets: list[int] = []
        self.links: list[tuple[int, int]] = []

    def new_node(self) -> tuple[int, int]:
        """Draw one node; returns its index and WCET."""
        wcet = _draw_wcet(self.rng, self.profile)
        self.wcets.append(wcet)
        return len(self.wcets) - 1, wcet

    @property
    def budget(self) -> int:
        return self.profile.max_nodes - len(self.wcets)

    def expand(self, depth: int, reserved: int = 0) -> tuple[int, int, int]:
        """Emit one sub-graph; returns its entry and exit node indexes
        and its longest path.

        A terminal's longest path is its WCET; a fork's is the fork's
        WCET, plus the longest of its branches, plus the join's.

        ``reserved`` counts join nodes of enclosing forks that are not
        created yet but whose budget must not be consumed; every active
        fork adds one reservation, so joins can always be materialised
        without busting ``max_nodes``.

        Expansion terminates when the nesting bound is hit, the free
        budget cannot fit the smallest fork (fork + 2 branch nodes +
        join = 4 nodes), or the ``p_term`` draw says so.
        """
        free = self.budget - reserved
        can_fork = depth < self.max_nesting and free >= 4
        must_fork = depth == 0 and self.profile.root_forks and can_fork
        if not can_fork or (not must_fork and self.rng.random() < self.profile.p_term):
            node, wcet = self.new_node()
            return node, node, wcet

        fork, fork_wcet = self.new_node()
        # Branches share the budget minus this fork's future join node.
        max_branches = min(self.profile.n_par_max, self.budget - reserved - 1)
        if max_branches < 2:  # pragma: no cover - guarded by can_fork
            raise GenerationError("internal: fork without branch budget")
        n_branches = int(self.rng.integers(2, max_branches + 1))
        branch_ends: list[int] = []
        longest_branch = 0
        for _ in range(n_branches):
            # One slot per branch body plus the reserved join must fit.
            if self.budget - (reserved + 1) < 1:
                break
            entry, exit_, longest = self.expand(depth + 1, reserved + 1)
            self.links.append((fork, entry))
            branch_ends.append(exit_)
            longest_branch = max(longest_branch, longest)
        if not branch_ends:  # pragma: no cover - budget checked above
            raise GenerationError("internal: fork produced no branches")
        join, join_wcet = self.new_node()
        for end in branch_ends:
            self.links.append((end, join))
        return fork, join, fork_wcet + longest_branch + join_wcet

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
"""

from __future__ import annotations

from repro.exceptions import GenerationError
from repro.generator.profiles import DagProfile
from repro.model.dag import DAG
from repro.model.node import Node
from repro.rng import Generator


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
    builder = _Builder(rng, profile, name_prefix)
    entry, exit_ = builder.expand(depth=0)
    del entry, exit_
    return DAG(builder.nodes, builder.edges)


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
    nodes = [
        Node(f"{name_prefix}{i + 1}", _draw_wcet(rng, profile)) for i in range(length)
    ]
    edges = [(nodes[i].name, nodes[i + 1].name) for i in range(length - 1)]
    return DAG(nodes, edges)


def _draw_wcet(rng: Generator, profile: DagProfile) -> int:
    return int(rng.integers(profile.wcet_min, profile.wcet_max + 1))


class _Builder:
    """Mutable state of one recursive expansion."""

    def __init__(
        self, rng: Generator, profile: DagProfile, prefix: str
    ) -> None:
        self.rng = rng
        self.profile = profile
        self.prefix = prefix
        self.nodes: list[Node] = []
        self.edges: list[tuple[str, str]] = []

    def new_node(self) -> str:
        name = f"{self.prefix}{len(self.nodes) + 1}"
        self.nodes.append(Node(name, _draw_wcet(self.rng, self.profile)))
        return name

    @property
    def budget(self) -> int:
        return self.profile.max_nodes - len(self.nodes)

    def expand(self, depth: int, reserved: int = 0) -> tuple[str, str]:
        """Emit one sub-graph; returns its (entry, exit) node names.

        ``reserved`` counts join nodes of enclosing forks that are not
        created yet but whose budget must not be consumed; every active
        fork adds one reservation, so joins can always be materialised
        without busting ``max_nodes``.

        Expansion terminates when the nesting bound is hit, the free
        budget cannot fit the smallest fork (fork + 2 branch nodes +
        join = 4 nodes), or the ``p_term`` draw says so.
        """
        free = self.budget - reserved
        can_fork = depth < self.profile.max_nesting and free >= 4
        must_fork = depth == 0 and self.profile.root_forks and can_fork
        if not can_fork or (not must_fork and self.rng.random() < self.profile.p_term):
            node = self.new_node()
            return node, node

        fork = self.new_node()
        # Branches share the budget minus this fork's future join node.
        max_branches = min(self.profile.n_par_max, self.budget - reserved - 1)
        if max_branches < 2:  # pragma: no cover - guarded by can_fork
            raise GenerationError("internal: fork without branch budget")
        n_branches = int(self.rng.integers(2, max_branches + 1))
        branch_ends: list[str] = []
        for _ in range(n_branches):
            # One slot per branch body plus the reserved join must fit.
            if self.budget - (reserved + 1) < 1:
                break
            entry, exit_ = self.expand(depth + 1, reserved + 1)
            self.edges.append((fork, entry))
            branch_ends.append(exit_)
        if not branch_ends:  # pragma: no cover - budget checked above
            raise GenerationError("internal: fork produced no branches")
        join = self.new_node()
        for end in branch_ends:
            self.edges.append((end, join))
        return fork, join

"""Graph algorithms over :class:`~repro.model.dag.DAG` objects.

Contains the structural analyses the RTA needs:

* :mod:`repro.graph.topology` — topological order, reachability maps;
* :mod:`repro.graph.paths` — longest path ``L_k`` and volume;
* :mod:`repro.graph.parallel` — the paper's Algorithm 1 (``Par(v)``
  sets) and an independent transitive-closure oracle;
* :mod:`repro.graph.properties` — poset width / maximum parallelism.
"""

from repro.graph.topology import (
    ancestors_map,
    descendants_map,
    reachable_from,
    topological_order,
)
from repro.graph.paths import longest_path_length, longest_path_nodes, volume
from repro.graph.parallel import (
    algorithm1_par_sets,
    is_parallel,
    par_sets_oracle,
    parallel_pairs,
)
from repro.graph.properties import (
    antichains,
    is_antichain,
    max_parallelism,
)

__all__ = [
    "topological_order",
    "reachable_from",
    "descendants_map",
    "ancestors_map",
    "longest_path_length",
    "longest_path_nodes",
    "volume",
    "algorithm1_par_sets",
    "par_sets_oracle",
    "parallel_pairs",
    "is_parallel",
    "antichains",
    "is_antichain",
    "max_parallelism",
]

"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.analyzer import AnalysisMethod
from repro.engine import DEFAULT_METHODS, SweepSpec
from repro.generator.profiles import GROUP1
from repro.model.dag import DAG
from repro.model.node import Node


@st.composite
def random_dags(
    draw,
    min_nodes: int = 1,
    max_nodes: int = 10,
    max_wcet: int = 20,
    edge_probability: float = 0.35,
    single_source: bool = False,
    fractional: bool = False,
) -> DAG:
    """Random DAGs: edges only go from lower to higher node index.

    With ``single_source=True`` every later node with no predecessor is
    wired to node 0, producing the OpenMP-style shape the paper's
    Algorithm 1 assumes.  With ``fractional=True`` each WCET is a
    multiple of a tenth or a third up to ``max_wcet``, so sums of WCETs
    round, as the shares ``split_all_nodes`` produces do.
    """

    def wcet() -> float:
        if not fractional:
            return float(draw(st.integers(1, max_wcet)))
        denominator = draw(st.sampled_from((10, 3)))
        return draw(st.integers(1, max_wcet * denominator)) / denominator

    n = draw(st.integers(min_nodes, max_nodes))
    nodes = [Node(f"n{i}", wcet()) for i in range(n)]
    edges: list[tuple[str, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(0, 1)) < edge_probability:
                edges.append((f"n{i}", f"n{j}"))
    if single_source and n > 1:
        with_preds = {v for _, v in edges}
        for j in range(1, n):
            if f"n{j}" not in with_preds:
                edges.append((f"n0", f"n{j}"))
    return DAG(nodes, edges)


#: Cheap-to-analyse utilisation grid points for m = 2 engine sweeps.
_SWEEP_UTILIZATIONS = (0.4, 0.7, 1.0, 1.3, 1.6)

#: Method tuples the conformance suite sweeps over (cheap first).
_SWEEP_METHODS: tuple[tuple[AnalysisMethod, ...], ...] = (
    (AnalysisMethod.FP_IDEAL,),
    (AnalysisMethod.LP_MAX, AnalysisMethod.LP_ILP),
    DEFAULT_METHODS,
)


@st.composite
def sweep_specs(
    draw,
    max_points: int = 3,
    max_tasksets: int = 4,
) -> SweepSpec:
    """Small, fast-to-run engine sweep specs for the conformance suite.

    Kept deliberately tiny (m = 2, a handful of low-utilisation points,
    ≤ ``max_tasksets`` task-sets per point) so every hypothesis example
    can afford to execute the sweep several times — serially, sharded,
    chunked, resumed — and compare results bit-for-bit.
    """
    utilizations = tuple(
        sorted(
            draw(
                st.lists(
                    st.sampled_from(_SWEEP_UTILIZATIONS),
                    min_size=1,
                    max_size=max_points,
                    unique=True,
                )
            )
        )
    )
    return SweepSpec(
        m=2,
        utilizations=utilizations,
        n_tasksets=draw(st.integers(1, max_tasksets)),
        profile=GROUP1,
        seed=draw(st.integers(0, 2**20)),
        methods=draw(st.sampled_from(_SWEEP_METHODS)),
        label="conformance",
    )


@st.composite
def job_specs(draw):
    """Random declarative jobs for the JobSpec round-trip property.

    Covers every workload kind, optional fields both set and unset,
    and execution policies with shards and paths — the full surface
    ``from_json(to_json(s)) == s`` must hold over.  Specs are never
    executed, so sizes are unconstrained.
    """
    from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload
    from repro.engine.shard import ShardSpec

    kind = draw(st.sampled_from((
        "figure2", "group2", "splitsweep", "sensitivity", "simulate",
        "timing",
    )))
    finite = st.floats(
        min_value=0.1, max_value=64.0, allow_nan=False, allow_infinity=False
    )
    workload_kwargs: dict = {
        "kind": kind,
        "n_tasksets": draw(st.one_of(st.none(), st.integers(1, 1000))),
        "seed": draw(st.integers(0, 2**32)),
    }
    if kind != "timing":  # timing sweeps m itself (via core_counts)
        workload_kwargs["m"] = draw(st.integers(1, 64))
    if kind in ("figure2", "group2"):
        workload_kwargs["step"] = draw(st.one_of(st.none(), finite))
    if kind == "figure2":
        workload_kwargs["mu_method"] = draw(
            st.sampled_from(("search", "ilp", "ilp-paper"))
        )
        workload_kwargs["rho_solver"] = draw(
            st.sampled_from(("assignment", "ilp"))
        )
    if kind == "splitsweep":
        workload_kwargs["utilization"] = draw(finite)
        workload_kwargs["thresholds"] = tuple(
            draw(st.lists(finite, min_size=1, max_size=6, unique=True))
        )
        workload_kwargs["overhead"] = draw(
            st.floats(0.0, 10.0, allow_nan=False)
        )
    if kind == "sensitivity":
        workload_kwargs["utilization"] = draw(st.one_of(st.none(), finite))
        workload_kwargs["max_scale"] = draw(st.one_of(st.none(), finite))
    if kind == "simulate":
        workload_kwargs["utilization"] = draw(st.one_of(st.none(), finite))
        workload_kwargs["horizon_factor"] = draw(
            st.one_of(st.none(), finite)
        )
    if kind == "timing":
        workload_kwargs["core_counts"] = draw(st.one_of(
            st.none(),
            st.lists(
                st.integers(1, 64), min_size=1, max_size=4, unique=True,
            ).map(tuple),
        ))
        workload_kwargs["utilization_factor"] = draw(
            st.one_of(st.none(), finite)
        )
    workload = Workload(**workload_kwargs)

    execution_kwargs: dict = {
        "jobs": draw(st.integers(1, 16)),
        "stream": draw(st.one_of(st.none(), st.just("out/stream.jsonl"))),
        "shard_out": draw(st.one_of(st.none(), st.just("out/shard.json"))),
    }
    if workload.supports_cache:  # row-based kinds reject the verdict cache
        execution_kwargs["cache"] = draw(
            st.sampled_from(("off", "read", "readwrite"))
        )
        execution_kwargs["cache_dir"] = draw(
            st.one_of(st.none(), st.just("out/cache"))
        )
    count = draw(st.integers(1, 8))
    shard = draw(
        st.one_of(st.none(), st.builds(
            ShardSpec, st.integers(0, count - 1), st.just(count)
        ))
    )
    execution_kwargs["shard"] = shard
    execution_kwargs["chunk_size"] = draw(
        st.one_of(st.none(), st.integers(1, 100))
    )
    execution_kwargs["checkpoint"] = draw(
        st.one_of(st.none(), st.just("out/ckpt.json"))
    )
    return JobSpec(workload=workload, execution=ExecutionPolicy(**execution_kwargs))


@st.composite
def mu_tables(
    draw,
    max_tasks: int = 5,
    m: int = 4,
    min_tasks: int = 1,
    values: st.SearchStrategy = st.integers(0, 30),
) -> dict[str, list[float]]:
    """Random per-task μ arrays: non-negative, zero-padded past a cut."""
    n_tasks = draw(st.integers(min_tasks, max_tasks))
    table: dict[str, list[float]] = {}
    for i in range(n_tasks):
        cut = draw(st.integers(1, m))
        drawn = sorted(
            (draw(values) for _ in range(cut)),
        )
        arr = [float(v) for v in drawn] + [0.0] * (m - cut)
        table[f"t{i}"] = arr
    return table


@st.composite
def series_parallel_dags(
    draw,
    max_leaves: int = 12,
    max_wcet: int = 30,
    shuffled: bool = False,
) -> DAG:
    """Random vertex series–parallel DAGs, the shape of every fork–join graph.

    A drawn tree of series and parallel compositions over single nodes;
    a series composition joins each part's sinks to the next part's
    sources.  Nodes are numbered part by part, so every edge points
    forward and the DAG comes from ``DAG._trusted``.  With
    ``shuffled=True`` it goes through the public constructor instead,
    its nodes and edges in a drawn order, so some edges point backward
    in insertion order.  WCETs are ints or integer-valued floats.
    """
    tree = draw(st.recursive(
        st.none(),
        lambda parts: st.tuples(st.booleans(), st.lists(parts, min_size=2, max_size=4)),
        max_leaves=max_leaves,
    ))
    links: list[tuple[int, int]] = []
    count = 0

    def compose(part) -> tuple[list[int], list[int]]:
        """Number ``part``'s nodes; return its sources and sinks."""
        nonlocal count
        if part is None:
            count += 1
            return [count - 1], [count - 1]
        in_series, parts = part
        ends = [compose(p) for p in parts]
        if not in_series:
            return [s for e in ends for s in e[0]], [t for e in ends for t in e[1]]
        for (_, sinks), (sources, _) in zip(ends, ends[1:]):
            links.extend((u, v) for u in sinks for v in sources)
        return ends[0][0], ends[-1][1]

    compose(tree)
    weight = st.integers(1, max_wcet)
    wcets = draw(st.lists(st.one_of(weight, weight.map(float)),
                          min_size=count, max_size=count))
    names = [f"v{i}" for i in range(count)]
    if not shuffled:
        return DAG._trusted(names, wcets, links)
    order = draw(st.permutations(range(count)))
    edges = draw(st.permutations([(names[u], names[v]) for u, v in links]))
    return DAG([Node(names[i], wcets[i]) for i in order], edges)

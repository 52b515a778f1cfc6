"""Fast-kernel floors: verdict cache, RTA memoisation, LP-ILP table, μ DP,
trusted split.

Five floors keep the analysis kernel honest, and each doubles as a
bit-identity check (the optimised paths must change *nothing* but the
wall-clock):

* a warm verdict cache must replay a whole sweep at least 5x faster
  than the cold run that populated it — the cache read path (a
  coordinate key + lookup) has to be cheap relative to generating and
  analysing a task-set;
* the :class:`~repro.core.interference.InterferenceMemo` must evaluate
  the fixpoint's ``I^hp_k`` query stream at least 1.5x faster than the
  seed kernel's per-call :func:`higher_priority_interference` on the
  group-2 shape (parallel-only task-sets), while summing to the
  bit-identical total;
* the LP-ILP knapsack table must compute ``(Δ^16, Δ^15)`` at least 20x
  faster than the scenario path (one assignment per partition of 16
  and of 15) over every ``lp(k)`` of a group-1 corpus, with every term
  ``float.hex``-identical;
* the μ cotree DP must compute ``μ[2..16]`` of every DAG of that corpus
  at least 3x faster than the branch-and-bound search it short-cuts,
  with every entry ``float.hex``-identical;
* ``split_all_nodes`` plus the longest path must be at least 2x faster
  than building the same DAGs through the public constructor plus the
  longest-path pass, on the ``splitsweep-m4`` corpus at four NPR caps,
  with every DAG ``==`` and every L ``float.hex``-identical.

Each run appends its numbers to ``BENCH_kernel.json`` at the repo root
— the checked-in benchmark trajectory.  Sizes are tunable via
``REPRO_BENCH_TASKSETS`` / ``REPRO_BENCH_POINTS`` (see
``benchmarks/conftest.py``).
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from repro.core.blocking import _knapsack_deltas, _lp_ilp_single
from repro.core.interference import InterferenceMemo, higher_priority_interference
from repro.core.workload import _mu_cotree, _mu_search, mu_array
from repro.engine import SweepEngine, SweepSpec
from repro.generator.profiles import GROUP1, GROUP2
from repro.generator.taskset_gen import generate_taskset

SEED = 2016
REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_FILE = REPO_ROOT / "BENCH_kernel.json"


def _record(section: str, payload: dict, check: bool = False) -> None:
    """Merge one benchmark's numbers into the checked-in trajectory.

    Under ``--check`` (``check=True``) nothing is rewritten: the
    section must already exist in ``BENCH_kernel.json`` and carry the
    same floor this test enforces — CI compares against the committed
    trajectory instead of silently re-baselining it.
    """
    if check:
        data = json.loads(BENCH_FILE.read_text())
        recorded = data.get(section)
        assert recorded is not None, (
            f"--check: no {section!r} section in {BENCH_FILE.name}; run "
            "the benchmarks once without --check to record it"
        )
        assert recorded.get("floor") == payload["floor"], (
            f"--check: {section!r} floor in {BENCH_FILE.name} is "
            f"{recorded.get('floor')} but the test enforces "
            f"{payload['floor']}; re-record the trajectory"
        )
        return
    data = {}
    if BENCH_FILE.exists():
        try:
            data = json.loads(BENCH_FILE.read_text())
        except (OSError, json.JSONDecodeError):
            data = {}
    data.setdefault("version", 1)
    data["generated_by"] = "benchmarks/bench_kernel.py"
    data[section] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _strip(result):
    return dataclasses.replace(result, elapsed_seconds=0.0)


def _best_of(fn, rounds=3) -> float:
    best = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def test_warm_verdict_cache_replays_5x_faster(
    tmp_path, bench_tasksets, bench_check
):
    # Serial engine, one process: the warm run measures the cache read
    # path alone, with no pool fork/teardown noise in either leg.  The
    # shape is the cache's raison d'etre — the exact ILP solver stack
    # (mu and rho both via branch-and-bound) in the borderline band
    # around u = m/2 where LP-ILP really runs, so one verdict costs
    # seconds while a cached replay costs a key and a lookup.
    spec = SweepSpec(
        m=8,
        utilizations=(3.4, 3.7, 4.0),
        n_tasksets=max(2, bench_tasksets // 5),
        profile=GROUP2,
        seed=SEED,
        mu_method="ilp",
        rho_solver="ilp",
        label="bench-kernel-cache",
    )
    cache_dir = tmp_path / "cache"

    begin = time.perf_counter()
    cold = SweepEngine(cache="readwrite", cache_dir=cache_dir).run(spec)
    cold_seconds = time.perf_counter() - begin

    # Each run opens its own cache handle, so the warm run loads the
    # persisted shards from disk, like a fresh process would.
    begin = time.perf_counter()
    warm = SweepEngine(cache="read", cache_dir=cache_dir).run(spec)
    warm_seconds = time.perf_counter() - begin

    assert _strip(warm) == _strip(cold)  # the cache changes nothing
    speedup = cold_seconds / warm_seconds
    _record(
        "verdict_cache",
        {
            "items": spec.total_items,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "speedup": round(speedup, 2),
            "floor": 5.0,
        },
        check=bench_check,
    )
    assert speedup >= 5.0, (
        f"warm verdict-cache replay is only {speedup:.1f}x faster than the "
        f"cold run ({warm_seconds:.3f}s vs {cold_seconds:.3f}s); the cache "
        "read path must stay cheap relative to a multi-method analysis"
    )


def _fixpoint_queries(taskset, m):
    """The ``I^hp_k`` query stream of one multi-method analysis pass.

    Three methods analyse the same task-set in priority order; each
    task's fixpoint re-evaluates a slowly-growing window a handful of
    times.  Windows repeat across methods — exactly the redundancy the
    memo exists to collapse.
    """
    responses = [
        task.longest_path + (task.volume - task.longest_path) / m
        for task in taskset.tasks
    ]
    for _ in range(3):  # methods sharing one memo
        for rank, task in enumerate(taskset.tasks):
            window = responses[rank]
            for _ in range(6):  # fixpoint iterations
                yield rank, window, responses
                window = window * 1.25 + 1.0
    return


def test_interference_memo_beats_seed_kernel(bench_tasksets, bench_check):
    # Group-2 shape: parallel-only DAG tasks, 5-8 per set at u = 6, so
    # every query sums a short hp prefix and the win is the W_i memo.
    m = 8
    tasksets = [
        generate_taskset(np.random.default_rng(SEED + i), 6.0, GROUP2)
        for i in range(max(24, 2 * bench_tasksets))
    ]

    def run_memo():
        total = 0.0
        for taskset in tasksets:
            memo = InterferenceMemo(taskset, m)
            for rank, window, responses in _fixpoint_queries(taskset, m):
                total += memo.interference(rank, window, responses[:rank])
        return total

    def run_seed():
        # The seed kernel's path: one scalar W_i sweep per query, no
        # memoisation anywhere.
        total = 0.0
        for taskset in tasksets:
            by_name = {
                task.name: response
                for task, response in zip(
                    taskset.tasks,
                    (
                        t.longest_path + (t.volume - t.longest_path) / m
                        for t in taskset.tasks
                    ),
                )
            }
            for rank, window, _ in _fixpoint_queries(taskset, m):
                total += higher_priority_interference(
                    taskset.tasks[:rank], window, m, by_name
                )
        return total

    assert run_memo() == run_seed()  # bit-identical totals, always

    # Both bodies take a few milliseconds, so host speed drifts across
    # back-to-back batches; alternating the two puts each round pair
    # on the same footing, and the minimums drop the slow rounds.
    memo_seconds = seed_seconds = float("inf")
    for _ in range(15):
        memo_seconds = min(memo_seconds, _best_of(run_memo, rounds=1))
        seed_seconds = min(seed_seconds, _best_of(run_seed, rounds=1))
    speedup = seed_seconds / memo_seconds
    _record(
        "interference_memo",
        {
            "tasksets": len(tasksets),
            "m": m,
            "seed_seconds": round(seed_seconds, 4),
            "memo_seconds": round(memo_seconds, 4),
            "speedup": round(speedup, 2),
            "floor": 1.5,
        },
        check=bench_check,
    )
    assert speedup >= 1.5, (
        f"InterferenceMemo is only {speedup:.2f}x faster than the seed "
        f"kernel ({memo_seconds:.4f}s vs {seed_seconds:.4f}s) on the "
        "group-2 shape; the memoised hot path has regressed"
    )


def _group1_m16_tasksets():
    """Figure 2(c)'s shape: group-1 task-sets across the utilisations
    where LP-ILP runs at m = 16."""
    return [
        generate_taskset(np.random.default_rng(SEED + i), 2.0 + i % 8, GROUP1)
        for i in range(16)
    ]


def test_lp_ilp_table_beats_scenario_path(bench_check):
    # Each lp(k) is one blocking term's input, its μ arrays computed
    # once up front.
    m = 16
    corpus = []
    for taskset in _group1_m16_tasksets():
        tasks = taskset.tasks
        for k in range(len(tasks) - 1):
            corpus.append({t.name: mu_array(t, m) for t in tasks[k + 1:]})

    def run_table():
        return [_knapsack_deltas(mu.values(), m) for mu in corpus]

    def run_scenarios():
        return [
            (_lp_ilp_single(mu, m, "assignment"),
             _lp_ilp_single(mu, m - 1, "assignment"))
            for mu in corpus
        ]

    table = run_table()
    assert None not in table  # generated μ are small integers
    assert [(a.hex(), b.hex()) for a, b in table] == [
        (a.hex(), b.hex()) for a, b in run_scenarios()
    ]

    table_seconds = _best_of(run_table)
    scenario_seconds = _best_of(run_scenarios, rounds=1)
    speedup = scenario_seconds / table_seconds
    _record(
        "lp_ilp_table",
        {
            "m": m,
            "lp_sets": len(corpus),
            "scenario_seconds": round(scenario_seconds, 4),
            "table_seconds": round(table_seconds, 4),
            "speedup": round(speedup, 1),
            "floor": 20.0,
        },
        check=bench_check,
    )
    assert speedup >= 20.0, (
        f"the LP-ILP knapsack table is only {speedup:.1f}x faster than the "
        f"scenario path ({table_seconds:.4f}s vs {scenario_seconds:.4f}s) "
        "at m = 16; the table has regressed"
    )


def test_mu_cotree_beats_search(bench_check):
    # Every task's μ input in the LP-ILP table's corpus: fork–join and
    # chain DAGs with integer WCETs, so the DP takes each one.
    m = 16
    dags = [task.graph for taskset in _group1_m16_tasksets() for task in taskset.tasks]

    def run_cotree():
        return [_mu_cotree(dag, m)[2:] for dag in dags]

    def run_search():
        out = []
        for dag in dags:
            search = _mu_search(dag)
            out.append([search(c) if c <= len(dag) else 0.0 for c in range(2, m + 1)])
        return out

    assert [[x.hex() for x in row] for row in run_cotree()] == [
        [x.hex() for x in row] for row in run_search()
    ]

    # Alternate the two, as for the interference memo: host speed
    # drifts across back-to-back batches.
    cotree_seconds = search_seconds = float("inf")
    for _ in range(5):
        cotree_seconds = min(cotree_seconds, _best_of(run_cotree, rounds=1))
        search_seconds = min(search_seconds, _best_of(run_search, rounds=1))
    speedup = search_seconds / cotree_seconds
    _record(
        "mu_cotree",
        {
            "m": m,
            "dags": len(dags),
            "search_seconds": round(search_seconds, 4),
            "cotree_seconds": round(cotree_seconds, 4),
            "speedup": round(speedup, 1),
            "floor": 3.0,
        },
        check=bench_check,
    )
    assert speedup >= 3.0, (
        f"the μ cotree DP is only {speedup:.1f}x faster than the search "
        f"({cotree_seconds:.4f}s vs {search_seconds:.4f}s) at m = 16; "
        "the DP has regressed"
    )


def test_trusted_split_beats_public_constructor(bench_check):
    # The splitsweep-m4 corpus (seed 2016, 20 group-1 sets at U = 1.75),
    # split at four NPR caps: the trusted split with its carried L
    # against building the same DAGs through the public constructor and
    # running the longest-path pass.
    from repro.graph.paths import longest_path_length
    from repro.model.dag import DAG
    from repro.model.transforms import split_all_nodes
    from repro.rng import default_rng

    rng = default_rng(SEED)
    dags = [task.graph for _ in range(20) for task in generate_taskset(rng, 1.75, GROUP1)]
    cases = [(dag, cap) for dag in dags for cap in (50.0, 25.0, 10.0, 5.0)]

    def run_split():
        out = []
        for dag, cap in cases:
            split = split_all_nodes(dag, cap)
            out.append((split, longest_path_length(split)))
        return out

    inputs = [
        (dict(zip(split.node_names, split.node_wcets)), split.edges)
        for split, _ in run_split()
    ]

    def run_public():
        out = []
        for nodes, edges in inputs:
            dag = DAG(nodes, edges)
            out.append((dag, longest_path_length(dag)))
        return out

    split, public = run_split(), run_public()
    assert [dag for dag, _ in split] == [dag for dag, _ in public]
    assert [length.hex() for _, length in split] == [length.hex() for _, length in public]

    split_seconds = public_seconds = float("inf")
    for _ in range(5):
        split_seconds = min(split_seconds, _best_of(run_split, rounds=1))
        public_seconds = min(public_seconds, _best_of(run_public, rounds=1))
    speedup = public_seconds / split_seconds
    _record(
        "trusted_split",
        {
            "dags": len(cases),
            "public_seconds": round(public_seconds, 4),
            "split_seconds": round(split_seconds, 4),
            "speedup": round(speedup, 1),
            "floor": 2.0,
        },
        check=bench_check,
    )
    assert speedup >= 2.0, (
        f"splitting is only {speedup:.1f}x faster than the public constructor "
        f"({split_seconds:.4f}s vs {public_seconds:.4f}s); the trusted split "
        "path has regressed"
    )

"""Orchestrator-tier overhead: live merge throughput and dispatch cost.

Two bounds keep the tier honest:

* the live merger must fold thousands of stream item lines per second
  — it runs inside the orchestrator's poll loop, so a slow merge would
  throttle dispatch itself;
* a whole orchestrated run (subprocess dispatch + stream tailing +
  artifact merge) must cost only bounded overhead on top of the same
  sweep run serially in-process, while producing the bit-identical
  result — the whole point of the design.

A third test is a long-run guard rather than a bound: a healthy
``--jobs 2`` shard that works for many stall timeouts must never be
killed as stalled (about 25 s of wall-clock on two cores).

Sizes via ``REPRO_BENCH_TASKSETS`` / ``REPRO_BENCH_POINTS``.
"""

import dataclasses
import json
import time

from benchmarks.conftest import sweep_grid
from repro.engine import FORMAT_VERSION, LiveMerger, plan_from_jobspec, run_job
from repro.engine.jobspec import ExecutionPolicy
from repro.engine.orchestrator import Orchestrator
from repro.experiments.figure2 import figure2_job

SEED = 2016
SHARDS = 3
ITEMS_PER_SHARD = 3000
#: Stall timeout of the long pool shard, and its size: 1,200 task-sets
#: per point make 18,000 Figure-2 items at m=8, about 20 s per worker
#: on a 2-vCPU host, i.e. over eight stall timeouts.
LONG_STALL_TIMEOUT = 2.0
LONG_TASKSETS = 1200


def _write_stream(path, fingerprint, shard_index, items):
    with path.open("w") as handle:
        handle.write(json.dumps({
            "type": "header", "version": FORMAT_VERSION, "kind": "sweep",
            "fingerprint": fingerprint, "shard": None,
            "total_items": SHARDS * items, "meta": {},
        }) + "\n")
        for i in range(items):
            handle.write(json.dumps({
                "type": "item", "item": shard_index + SHARDS * i,
                "rows": [[True, True, False]],
                "replayed": False, "elapsed_seconds": 0.001,
            }) + "\n")
        handle.write(json.dumps({
            "type": "summary", "done_items": items, "elapsed_seconds": 1.0,
        }) + "\n")


def test_livemerge_folds_thousands_of_items_fast(benchmark, tmp_path):
    fingerprint = "b" * 64
    paths = []
    for index in range(SHARDS):
        path = tmp_path / f"s{index}.jsonl"
        _write_stream(path, fingerprint, index, ITEMS_PER_SHARD)
        paths.append(path)

    def merge_from_scratch():
        merger = LiveMerger(SHARDS * ITEMS_PER_SHARD, fingerprint)
        for index, path in enumerate(paths):
            merger.attach(index, path)
        return merger.poll()

    view = benchmark.pedantic(merge_from_scratch, rounds=3, iterations=1)
    assert view.finished
    assert view.done_items == SHARDS * ITEMS_PER_SHARD
    assert view.timed_items == SHARDS * ITEMS_PER_SHARD
    mean = benchmark.stats.stats.mean
    per_line = mean / (SHARDS * (ITEMS_PER_SHARD + 2))
    assert per_line < 1e-3, (
        f"live merge folds a stream line in {per_line * 1e6:.0f}us; "
        "too slow for the orchestrator's poll loop"
    )


def test_orchestration_overhead_is_bounded(benchmark, bench_points, bench_tasksets, tmp_path):
    m = 2
    grid = sweep_grid(m, bench_points)
    step = round(grid[1] - grid[0], 4) if len(grid) > 1 else 1.0

    start = time.perf_counter()
    job = figure2_job(m=m, n_tasksets=bench_tasksets, seed=SEED, step=step)
    serial = run_job(job)
    serial_seconds = time.perf_counter() - start

    plan = plan_from_jobspec(job)

    def orchestrate_full_sweep():
        return Orchestrator(
            plan, tmp_path / "orch", workers=SHARDS, poll_interval=0.05,
        ).run()

    outcome = benchmark.pedantic(orchestrate_full_sweep, rounds=1, iterations=1)
    strip = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)  # noqa: E731
    assert strip(outcome.result) == strip(serial), (
        "orchestrated result diverged from the serial run"
    )
    orchestrated_seconds = benchmark.stats.stats.mean
    # Three shards redo the serial work across three interpreters;
    # allow full serial time (workers share cores in CI) plus a
    # constant for interpreter start-up, polling and the merge.
    assert orchestrated_seconds < 2.0 * serial_seconds + 20.0, (
        f"orchestration ({orchestrated_seconds:.1f}s) is out of line with "
        f"the serial run ({serial_seconds:.1f}s)"
    )


def test_long_pool_shard_is_not_killed_as_stalled(benchmark, tmp_path):
    """A pool shard writes stream lines only as its chunks return.

    Were every chunk a fixed share of the run (``ceil(n / (8 × jobs))``
    items), a shard working for more than about eight stall timeouts
    per worker would go silent for longer than one and be killed, and
    its relaunch, with nothing new checkpointed, would stall again.
    Capped chunks (:data:`~repro.engine.sweep.MAX_POOL_CHUNK`) keep the
    silence to a few items.  With no retries allowed, one stall kill
    fails the run.
    """
    job = figure2_job(
        m=8, n_tasksets=LONG_TASKSETS, seed=SEED,
        execution=ExecutionPolicy(jobs=2),
    )
    plan = plan_from_jobspec(job)

    def orchestrate_one_long_shard():
        return Orchestrator(
            plan, tmp_path / "orch", workers=1, retries=0,
            poll_interval=0.05, stall_timeout=LONG_STALL_TIMEOUT,
        ).run()

    outcome = benchmark.pedantic(orchestrate_one_long_shard, rounds=1, iterations=1)
    assert outcome.retries == 0
    assert outcome.view.done_items == plan.total_items
    per_worker = outcome.view.timed_seconds / 2
    benchmark.extra_info["per_worker_s"] = per_worker
    assert per_worker > 8 * LONG_STALL_TIMEOUT, (
        f"the shard's workers ran {per_worker:.1f}s each, under eight "
        f"{LONG_STALL_TIMEOUT}s stall timeouts, so the run shows nothing; "
        "raise LONG_TASKSETS"
    )

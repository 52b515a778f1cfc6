"""Sharded execution overhead: N shards + merge vs one serial run.

Splitting a sweep into shards buys wall-clock only when the shards run
on *different* machines; on one machine, running every shard back to
back measures the pure overhead of the sharded path (strided per-item
chunks, artifact serialisation, merge validation).  That overhead must
stay small — sharding would be useless if the bookkeeping ate the
speedup — and the merged result must equal the serial run bit-for-bit,
which is the whole point of the design.

Sizes via ``REPRO_BENCH_TASKSETS`` / ``REPRO_BENCH_POINTS``.
"""

import dataclasses
import time

from benchmarks.conftest import sweep_grid
from repro.engine import DEFAULT_METHODS, ShardSpec, SweepEngine, SweepSpec
from repro.engine.registry import merge_artifacts
from repro.generator.profiles import GROUP1

M = 4
SEED = 2016
SHARDS = 4


def _spec(points: int, tasksets: int) -> SweepSpec:
    return SweepSpec(
        m=M,
        utilizations=tuple(sweep_grid(M, points)),
        n_tasksets=tasksets,
        profile=GROUP1,
        seed=SEED,
        methods=DEFAULT_METHODS,
        label="bench-engine-shard",
    )


def _strip(result):
    return dataclasses.replace(result, elapsed_seconds=0.0)


def test_sharded_merge_overhead_is_small(benchmark, bench_points, bench_tasksets, tmp_path):
    spec = _spec(bench_points, bench_tasksets)

    start = time.perf_counter()
    serial = SweepEngine().run(spec)
    serial_seconds = time.perf_counter() - start

    def run_all_shards_and_merge():
        paths = []
        for index in range(SHARDS):
            path = tmp_path / f"shard{index}.json"
            SweepEngine().run(
                spec, shard=ShardSpec(index, SHARDS), shard_out=path
            )
            paths.append(path)
        return merge_artifacts(paths)

    merged = benchmark.pedantic(
        run_all_shards_and_merge, rounds=1, iterations=1
    )

    assert _strip(merged) == _strip(serial), "sharded merge changed the result"
    sharded_seconds = benchmark.stats.stats.mean
    # All shards together redo exactly the serial work; allow 50% + a
    # constant for per-item chunking, JSON artifacts and the merge.
    assert sharded_seconds < 1.5 * serial_seconds + 1.0, (
        f"sharded path ({sharded_seconds:.3f}s) overhead is out of line "
        f"with the serial run ({serial_seconds:.3f}s)"
    )

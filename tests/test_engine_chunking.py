"""Chunk sizing: one item per chunk serially, ``min(ceil(n / (8 ×
jobs)), MAX_POOL_CHUNK)`` items per chunk on a pool, and ``chunk_size``
pins both."""

import math

import pytest

from repro.engine import (
    MultiprocessExecutor,
    SerialExecutor,
    ShardSpec,
    SweepEngine,
)
from repro.engine.streaming import iter_stream
from repro.engine.sweep import MAX_POOL_CHUNK, SweepSpec
from repro.generator.profiles import GROUP1


def _spec(**overrides):
    defaults = dict(
        m=2,
        utilizations=(0.5, 1.5),
        n_tasksets=5,
        profile=GROUP1,
        seed=7,
        label="chunking-test",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class _RecordingExecutor(SerialExecutor):
    """Runs chunks in-process while claiming ``jobs`` workers, and
    records the item count of every chunk each map call received."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.calls = []

    def map_unordered(self, fn, payloads):
        payloads = list(payloads)
        self.calls.append([
            sum(stop - start for start, stop, _ in runs)
            for _evaluate, runs, _cache in payloads
        ])
        return super().map_unordered(fn, payloads)


class TestFixedChunkRule:
    def test_serial_runs_one_item_per_chunk(self):
        executor = _RecordingExecutor(jobs=1)
        SweepEngine(executor=executor).run(_spec())
        assert executor.calls == [[1] * 10]

    @pytest.mark.parametrize("jobs, n_tasksets", [(2, 20), (3, 20), (2, 3)])
    def test_unpinned_pool_sends_fixed_chunks_in_one_call(self, jobs, n_tasksets):
        spec = _spec(n_tasksets=n_tasksets)
        n = spec.total_items
        size = min(math.ceil(n / (8 * jobs)), MAX_POOL_CHUNK)
        executor = _RecordingExecutor(jobs)
        SweepEngine(executor=executor).run(spec)
        (sizes,) = executor.calls
        assert sizes == [size] * (n // size) + ([n % size] if n % size else [])

    def test_pool_sizes_chunks_from_the_shard_slice(self):
        # A shard's remaining items are strided; the rule counts them,
        # not the whole item space, and batches single-item runs.
        spec = _spec(n_tasksets=20)
        executor = _RecordingExecutor(jobs=2)
        SweepEngine(executor=executor).run(spec, shard=ShardSpec(0, 2))
        assert executor.calls == [[2] * 10]

    def test_long_pool_run_caps_every_chunk(self):
        # ceil(600 / 16) = 38 items would make each chunk a fixed share
        # of the run; the cap keeps a chunk a few items long however
        # long the run, so stream lines and checkpoints stay frequent.
        spec = _spec(utilizations=(0.25, 0.5, 0.75), n_tasksets=200)
        assert math.ceil(spec.total_items / 16) > MAX_POOL_CHUNK
        executor = _RecordingExecutor(jobs=2)
        SweepEngine(executor=executor).run(spec)
        (sizes,) = executor.calls
        assert max(sizes) == MAX_POOL_CHUNK
        assert sum(sizes) == spec.total_items

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_chunk_size_pins_serial_and_pool(self, jobs):
        executor = _RecordingExecutor(jobs)
        SweepEngine(executor=executor, chunk_size=4).run(_spec())
        assert executor.calls == [[4, 4, 2]]

    def test_unpinned_pool_run_is_bit_identical_to_serial(self):
        spec = _spec(n_tasksets=7)
        serial = SweepEngine().run(spec)
        with MultiprocessExecutor(3) as executor:
            pooled = SweepEngine(executor=executor).run(spec)
        assert [p.schedulable for p in pooled.points] == [
            p.schedulable for p in serial.points
        ]


class TestEngineTelemetry:
    def test_stream_chunks_carry_elapsed_seconds(self, tmp_path):
        stream = tmp_path / "sweep.jsonl"
        SweepEngine().run(_spec(), stream=stream)
        items = [line for line in iter_stream(stream) if line["type"] == "item"]
        assert len(items) == _spec().total_items
        assert all(line["elapsed_seconds"] >= 0.0 for line in items)

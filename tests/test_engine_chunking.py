"""Adaptive chunk sizing: the telemetry loop and its engine integration."""

import pytest

from repro.engine import (
    AdaptiveChunker,
    SweepEngine,
    ThreadExecutor,
    read_stream,
    seed_chunker_from_timings,
    suggest_chunk_size_from_stream,
)
from repro.engine.sweep import SweepSpec
from repro.exceptions import AnalysisError
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


class TestAdaptiveChunker:
    def test_initial_size_before_telemetry(self):
        assert AdaptiveChunker().chunk_size() == 1
        assert AdaptiveChunker(initial_size=8).chunk_size() == 8

    def test_sizes_toward_target(self):
        chunker = AdaptiveChunker(target_seconds=1.0)
        chunker.observe(10, 0.1)  # 10 ms/item -> ~100 items per second
        assert chunker.chunk_size() == 100
        assert chunker.samples == 1
        assert chunker.per_item_seconds == pytest.approx(0.01)

    def test_smoothing_blends_samples(self):
        chunker = AdaptiveChunker(target_seconds=1.0, smoothing=0.5)
        chunker.observe(1, 0.01)
        chunker.observe(1, 0.03)
        assert chunker.per_item_seconds == pytest.approx(0.02)
        assert chunker.chunk_size() == 50

    def test_clamped_to_bounds(self):
        chunker = AdaptiveChunker(target_seconds=1.0, max_size=16)
        chunker.observe(1000, 0.001)  # absurdly cheap items
        assert chunker.chunk_size() == 16
        slow = AdaptiveChunker(target_seconds=0.01, min_size=2)
        slow.observe(1, 10.0)  # absurdly expensive items
        assert slow.chunk_size() == 2

    def test_zero_duration_chunks_do_not_divide_by_zero(self):
        chunker = AdaptiveChunker()
        chunker.observe(5, 0.0)
        assert chunker.chunk_size() == chunker.max_size

    def test_empty_observation_ignored(self):
        chunker = AdaptiveChunker()
        chunker.observe(0, 1.0)
        assert chunker.samples == 0
        assert chunker.chunk_size() == chunker.initial_size

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(target_seconds=0),
            dict(min_size=0),
            dict(max_size=0),
            dict(min_size=8, max_size=4),
            dict(initial_size=0),
            dict(initial_size=10000, max_size=100),
            dict(smoothing=0.0),
            dict(smoothing=1.5),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(AnalysisError):
            AdaptiveChunker(**kwargs)

    def test_seed_from_timings(self):
        chunker = seed_chunker_from_timings(
            AdaptiveChunker(target_seconds=1.0, smoothing=1.0),
            [(2, 0.2), (4, 0.2)],
        )
        assert chunker.samples == 2
        assert chunker.chunk_size() == 20  # last sample: 50 ms/item


class TestEngineTelemetry:
    def test_stream_chunks_carry_elapsed_seconds(self, tmp_path):
        stream = tmp_path / "sweep.jsonl"
        SweepEngine().run(_spec(), stream=stream)
        dump = read_stream(stream)
        assert dump.records, "sweep produced no item lines"
        assert len(dump.timings) == len(dump.records)
        assert all(items == 1 for items, _ in dump.timings)
        assert all(seconds >= 0.0 for _, seconds in dump.timings)

    def test_suggest_chunk_size_from_stream(self, tmp_path):
        stream = tmp_path / "sweep.jsonl"
        SweepEngine().run(_spec(), stream=stream)
        suggested = suggest_chunk_size_from_stream(stream)
        assert isinstance(suggested, int) and suggested >= 1

    def test_suggest_handles_missing_and_empty(self, tmp_path):
        assert suggest_chunk_size_from_stream(tmp_path / "nope.jsonl") is None
        bad = tmp_path / "garbage.jsonl"
        bad.write_text("not json\n")
        assert suggest_chunk_size_from_stream(bad) is None

    def test_adaptive_run_is_bit_identical_to_serial(self):
        spec = _spec(n_tasksets=7)
        serial = SweepEngine().run(spec)
        with ThreadExecutor(3) as executor:
            # chunk_size=None + pool executor -> the adaptive path.
            adaptive = SweepEngine(executor=executor).run(spec)
        assert [p.schedulable for p in adaptive.points] == [
            p.schedulable for p in serial.points
        ]

    def test_preseeded_chunker_is_used(self):
        spec = _spec(n_tasksets=4)
        chunker = AdaptiveChunker(initial_size=3)
        with ThreadExecutor(2) as executor:
            SweepEngine(executor=executor, chunker=chunker).run(spec)
        # The engine fed the chunker telemetry from its own chunks.
        assert chunker.samples > 0

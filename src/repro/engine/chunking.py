"""Adaptive chunk sizing from per-chunk wall-time telemetry.

The engine batches work items into chunks so each executor round-trip
amortises pickling/IPC over many items.  The right chunk size depends
on how expensive the items are — which varies by orders of magnitude
with the utilisation point and the analysis methods — so a fixed
heuristic either starves the pool (chunks too big, stragglers at the
end) or drowns it in overhead (chunks too small).

:class:`AdaptiveChunker` closes the loop: every completed chunk reports
``(items, seconds)``; an exponentially-weighted estimate of the
seconds-per-item rate then sizes the next chunks so each one takes
about ``target_seconds`` of wall-clock.  The same telemetry is written
into result streams (the ``elapsed_seconds`` field of each ``item``
line), so a *separate* process — the orchestrator live-merging shard
streams — can seed a chunker from observed timings and pass a warmed-up
``--chunk-size`` to relaunched shards.

Chunk sizing never affects results: every work item is evaluated on its
own, so any chunking is bit-identical (the conformance suite pins
this).  Adaptivity is purely a throughput/latency knob.
"""

from __future__ import annotations

from pathlib import Path

from repro.exceptions import AnalysisError

#: Smallest believable per-chunk wall-clock; guards divide-by-zero on
#: timer-resolution chunks.
_MIN_SECONDS = 1e-9


class AdaptiveChunker:
    """Size chunks so each executor task takes ~``target_seconds``.

    Parameters
    ----------
    target_seconds:
        Wall-clock to aim for per chunk.  Small enough that progress
        updates, checkpoints and stream lines stay frequent; large
        enough that per-task overhead is amortised.
    min_size / max_size:
        Hard clamps on the suggested size.
    initial_size:
        Size suggested before any telemetry arrives (``min_size`` by
        default: the first wave measures the item rate at the finest
        granularity allowed).
    smoothing:
        Weight of the newest sample in the exponentially-weighted
        per-item rate estimate (0 < smoothing <= 1).
    """

    def __init__(
        self,
        target_seconds: float = 0.25,
        min_size: int = 1,
        max_size: int = 4096,
        initial_size: int | None = None,
        smoothing: float = 0.5,
    ) -> None:
        if target_seconds <= 0:
            raise AnalysisError(
                f"target_seconds must be > 0, got {target_seconds}"
            )
        if min_size < 1:
            raise AnalysisError(f"min_size must be >= 1, got {min_size}")
        if max_size < min_size:
            raise AnalysisError(
                f"max_size must be >= min_size, got {max_size} < {min_size}"
            )
        if initial_size is None:
            initial_size = min_size
        if not min_size <= initial_size <= max_size:
            raise AnalysisError(
                f"initial_size must be in {min_size} .. {max_size}, "
                f"got {initial_size}"
            )
        if not 0 < smoothing <= 1:
            raise AnalysisError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        self.target_seconds = target_seconds
        self.min_size = min_size
        self.max_size = max_size
        self.initial_size = initial_size
        self.smoothing = smoothing
        self._per_item: float | None = None
        self._samples = 0

    @property
    def samples(self) -> int:
        """Telemetry samples observed so far."""
        return self._samples

    @property
    def per_item_seconds(self) -> float | None:
        """Current seconds-per-item estimate (``None`` before telemetry)."""
        return self._per_item

    def observe(self, items: int, seconds: float) -> None:
        """Feed one completed chunk's ``(items, seconds)`` telemetry."""
        if items < 1:
            return
        rate = max(seconds, _MIN_SECONDS) / items
        if self._per_item is None:
            self._per_item = rate
        else:
            self._per_item = (
                self.smoothing * rate + (1.0 - self.smoothing) * self._per_item
            )
        self._samples += 1

    def chunk_size(self) -> int:
        """The suggested size for the next chunks."""
        if self._per_item is None:
            return self.initial_size
        ideal = round(self.target_seconds / self._per_item)
        return max(self.min_size, min(self.max_size, int(ideal)))


def seed_chunker_from_timings(
    chunker: AdaptiveChunker, timings: list[tuple[int, float]]
) -> AdaptiveChunker:
    """Warm a chunker with ``(items, seconds)`` pairs (e.g. from a stream).

    Returns the chunker for chaining.  Use with
    :attr:`repro.engine.streaming.StreamDump.timings` — or any
    telemetry a live merger collected — to hand a relaunched shard a
    chunk size matched to the observed item cost.
    """
    for items, seconds in timings:
        chunker.observe(items, seconds)
    return chunker


def suggest_chunk_size_from_stream(path: str | Path) -> int | None:
    """One-shot: read a stream file's item timings, suggest a size.

    Returns ``None`` when the stream is missing or carries no timing
    telemetry (e.g. all its items were replayed from a checkpoint).
    """
    from repro.engine.streaming import read_stream

    path = Path(path)
    if not path.exists():
        return None
    try:
        dump = read_stream(path)
    except AnalysisError:
        return None
    if not dump.timings:
        return None
    chunker = seed_chunker_from_timings(AdaptiveChunker(), dump.timings)
    return chunker.chunk_size()

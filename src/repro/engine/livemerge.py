"""Live merge of partial shard streams: cluster-wide progress and telemetry.

:func:`~repro.engine.registry.merge_artifacts` recombines *finished*
shard artifacts; this module follows shards *while they run*.  Every
shard invocation appends one JSONL line per completed work item to its
``--stream`` file; a :class:`LiveMerger` keeps a
:class:`~repro.engine.streaming.StreamTail` on each file and folds
newly-completed lines into one cluster-wide :class:`ClusterView` —
per-shard progress, verdict-cache counters, and the pooled item-timing
telemetry the adaptive chunk sizer (:mod:`repro.engine.chunking`)
consumes.

The view is an *observation*: the orchestrator still validates the
final result through the shard-artifact fingerprint machinery.  But it
is an honest one — item lines are only ever whole (the tail never
splits a line), restarts are detected (a retried shard truncates its
stream, resetting that shard's contribution), and a header fingerprint
that does not match the expected sweep raises
:class:`~repro.exceptions.ShardError` immediately rather than silently
merging two different sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ShardError
from repro.engine.streaming import StreamTail


@dataclass(slots=True)
class ShardProgress:
    """What one shard's partial stream has revealed so far."""

    index: int
    path: Path
    #: ``"waiting"`` (no stream yet), ``"running"``, or ``"finished"``
    #: (summary line seen; the artifact may still be a moment behind).
    state: str = "waiting"
    done_items: int = 0
    #: ``(items, seconds)`` item-timing telemetry from this shard.
    timings: list[tuple[int, float]] = field(default_factory=list)
    #: Verdict-cache hits/misses summed over this shard's item lines
    #: (0 when the shard ran with the cache off).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cache-health telemetry: torn entries swept on open and index
    #: entries found stale, summed over this shard's item lines.
    cache_swept: int = 0
    cache_stale: int = 0
    #: Stream restarts observed (shard was retried).
    restarts: int = 0

    def _reset(self) -> None:
        self.state = "waiting"
        self.done_items = 0
        self.timings = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_swept = 0
        self.cache_stale = 0


@dataclass(frozen=True, slots=True)
class ClusterView:
    """One consistent snapshot across every attached shard stream."""

    total_items: int
    done_items: int
    shards: tuple[ShardProgress, ...]
    #: Pooled ``(items, seconds)`` telemetry across all shards.
    timings: tuple[tuple[int, float], ...]
    #: Verdict-cache hits/misses pooled across all shards.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cache-health telemetry pooled across all shards (torn entries
    #: swept on open, index entries found stale).
    cache_swept: int = 0
    cache_stale: int = 0

    @property
    def fraction_done(self) -> float:
        return self.done_items / self.total_items if self.total_items else 0.0

    @property
    def finished(self) -> bool:
        """Every shard stream ended with its summary line."""
        return all(shard.state == "finished" for shard in self.shards)

    def shard(self, key: int) -> ShardProgress:
        """The progress entry attached under ``key``.

        Keys are the merger's attach indexes.  For a plain partition
        they equal positions in :attr:`shards`, but elastic sub-shards
        get fresh keys above the shard count, so look up by key rather
        than indexing the tuple.
        """
        for progress in self.shards:
            if progress.index == key:
                return progress
        # Mapping-protocol lookup: deliberately mirrors dict semantics
        # (callers probe with try/except KeyError), not an engine failure.
        # repro-lint: disable=ERR001
        raise KeyError(f"no shard stream attached under key {key}")


class LiveMerger:
    """Fold growing shard streams into a cluster-wide progress view.

    Parameters
    ----------
    total_items:
        The full sweep's item count (for progress fractions).
    fingerprint:
        When set, every stream header must carry this sweep
        fingerprint; a mismatch raises
        :class:`~repro.exceptions.ShardError` (the stream belongs to a
        different sweep — merging it would be garbage).
    """

    def __init__(self, total_items: int, fingerprint: str | None = None) -> None:
        self.total_items = total_items
        self.fingerprint = fingerprint
        self._tails: dict[int, StreamTail] = {}
        self._shards: dict[int, ShardProgress] = {}

    def attach(self, index: int, path: str | Path) -> None:
        """Start following shard ``index``'s stream file (may not exist yet)."""
        path = Path(path)
        self._tails[index] = StreamTail(path)
        self._shards[index] = ShardProgress(index=index, path=path)

    def reset(self, index: int, count_restart: bool = True) -> None:
        """Discard shard ``index``'s accumulated state and re-tail from 0.

        The orchestrator calls this whenever it launches a shard over
        prior stream bytes — a retry, or the first launch of a resumed
        orchestration whose previous process died: the old stream is
        garbage (recovery resumes from the checkpoint, not the stream).
        The tail's own size-shrink truncation detection remains as a
        fallback for external observers, but an equal-or-longer rewrite
        can race past it — the owner of the relaunch must not rely on
        it.  ``count_restart=False`` resets without incrementing the
        :attr:`ShardProgress.restarts` metric (resume, not retry).
        """
        shard = self._shards[index]
        self._tails[index] = StreamTail(shard.path)
        shard._reset()
        if count_restart:
            shard.restarts += 1

    def poll(self) -> ClusterView:
        """Consume newly-completed stream lines, return the merged view."""
        for index, tail in self._tails.items():
            shard = self._shards[index]
            before = tail.truncations
            lines = tail.poll()
            if tail.truncations > before:
                # The shard was relaunched and its writer truncated the
                # stream: everything previously folded in is stale.
                shard._reset()
                shard.restarts += 1
            for line in lines:
                self._fold(shard, line)
        return self.view()

    def view(self) -> ClusterView:
        """The current merged snapshot (no file reads)."""
        timings: list[tuple[int, float]] = []
        done = 0
        cache_hits = 0
        cache_misses = 0
        cache_swept = 0
        cache_stale = 0
        for shard in self._shards.values():
            done += shard.done_items
            timings.extend(shard.timings)
            cache_hits += shard.cache_hits
            cache_misses += shard.cache_misses
            cache_swept += shard.cache_swept
            cache_stale += shard.cache_stale
        return ClusterView(
            total_items=self.total_items,
            done_items=done,
            shards=tuple(
                self._shards[index] for index in sorted(self._shards)
            ),
            timings=tuple(timings),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_swept=cache_swept,
            cache_stale=cache_stale,
        )

    # ------------------------------------------------------------------
    def _fold(self, shard: ShardProgress, line: dict) -> None:
        line_type = line.get("type")
        if line_type == "header":
            if (
                self.fingerprint is not None
                and line.get("fingerprint") != self.fingerprint
            ):
                raise ShardError(
                    f"stream {shard.path} belongs to a different sweep "
                    "(fingerprint mismatch); refusing to live-merge it"
                )
            shard.state = "running"
        elif line_type == "item":
            shard.done_items += 1
            if "elapsed_seconds" in line:
                shard.timings.append((1, float(line["elapsed_seconds"])))
            cache = line.get("cache")
            if isinstance(cache, dict):
                shard.cache_hits += int(cache.get("hits", 0))
                shard.cache_misses += int(cache.get("misses", 0))
                shard.cache_swept += int(cache.get("swept", 0))
                shard.cache_stale += int(cache.get("stale", 0))
        elif line_type == "summary":
            shard.state = "finished"

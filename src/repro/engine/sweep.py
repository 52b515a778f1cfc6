"""The sweep engine: one-pass multi-method analysis over chunked work.

A sweep is a grid of ``(utilisation point, task-set index)`` work items.
Each item generates one random task-set and evaluates every requested
method in a single pass (:func:`repro.core.analyzer.analyze_taskset_multi`).
Items are grouped into chunks and handed to a pluggable executor
(:mod:`repro.engine.executors`); on pool executors the chunk size is
adapted on the fly from per-chunk wall-time telemetry
(:mod:`repro.engine.chunking`) unless pinned explicitly.

Determinism
-----------
Every item derives its RNG directly from the root seed:

    SeedSequence(seed, spawn_key=(point_index, taskset_index))

which equals ``SeedSequence(seed).spawn(P)[point].spawn(N)[index]`` but
needs no shared spawning state — so any chunking, any executor and any
completion order produce bit-identical counts.

Checkpointing
-------------
With a checkpoint path, completed chunks are periodically written to a
JSON file (:mod:`repro.engine.checkpoint`); an interrupted sweep re-run
with the same spec resumes from the covered items instead of restarting.
A checkpoint written by a *different* spec is rejected by fingerprint.

Sharding and streaming
----------------------
:meth:`SweepEngine.run` optionally evaluates only one
:class:`~repro.engine.shard.ShardSpec` slice of the item space, writing
a versioned shard artifact that
:func:`~repro.engine.shard.merge_shards` later recombines into the
exact single-process result; a ``stream`` path additionally emits every
completed chunk as one JSONL line the moment it finishes
(:mod:`repro.engine.streaming`).
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import AnalysisError, CacheError
from repro.core.analyzer import AnalysisMethod, analyze_taskset_multi
from repro.core.blocking import RhoSolver
from repro.core.workload import MuMethod
from repro.engine.checkpoint import (
    ChunkRecord,
    SweepCheckpoint,
    clean_stale_tmps,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine.chunking import AdaptiveChunker
from repro.engine.executors import Executor, SerialExecutor
from repro.engine.results import SweepPoint, SweepResult
from repro.engine.shard import KIND_SWEEP, ShardArtifact, ShardSpec, save_shard, sweep_meta
from repro.engine.streaming import StreamWriter
from repro.engine.vcache import CACHE_MODES, DEFAULT_CACHE_DIR, VerdictCache
from repro.generator.profiles import TasksetProfile
from repro.generator.taskset_gen import generate_taskset

#: Methods compared in the paper's evaluation, in plot order.
DEFAULT_METHODS: tuple[AnalysisMethod, ...] = (
    AnalysisMethod.FP_IDEAL,
    AnalysisMethod.LP_ILP,
    AnalysisMethod.LP_MAX,
)


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Everything that defines a sweep's counts (and its fingerprint).

    Attributes
    ----------
    m:
        Core count.
    utilizations:
        The x-axis grid.
    n_tasksets:
        Task-sets generated per grid point (paper: 300).
    profile:
        Generator profile (group 1 / group 2 / custom).
    seed:
        Root seed; every work item derives its own RNG from it.
    methods:
        Analyses run on every task-set.
    label:
        Free-form tag carried into the result.
    mu_method / rho_solver:
        LP-ILP solver selection.
    """

    m: int
    utilizations: tuple[float, ...]
    n_tasksets: int
    profile: TasksetProfile
    seed: int
    methods: tuple[AnalysisMethod, ...] = DEFAULT_METHODS
    label: str = ""
    mu_method: MuMethod = "search"
    rho_solver: RhoSolver = "assignment"

    def __post_init__(self) -> None:
        object.__setattr__(self, "utilizations", tuple(self.utilizations))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.n_tasksets < 1:
            raise AnalysisError(f"n_tasksets must be >= 1, got {self.n_tasksets}")
        if not self.methods:
            raise AnalysisError("need at least one analysis method")

    @property
    def n_points(self) -> int:
        return len(self.utilizations)

    @property
    def total_items(self) -> int:
        return self.n_points * self.n_tasksets

    def taskset_rng(self, point_index: int, taskset_index: int) -> np.random.Generator:
        """The work item's private RNG, independent of execution order."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(point_index, taskset_index))
        )

    def fingerprint(self) -> str:
        """Stable hash identifying the sweep a checkpoint belongs to."""
        canonical = repr(
            (
                "repro.engine.sweep/v1",
                self.m,
                self.utilizations,
                self.n_tasksets,
                repr(self.profile),
                self.seed,
                tuple(method.value for method in self.methods),
                self.label,
                self.mu_method,
                self.rho_solver,
            )
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def item_fingerprints(spec: SweepSpec) -> tuple[str, ...]:
    """Per-item task-set fingerprints of the sweep's corpus, in item order.

    Generates each work item's task-set (cheap next to analysing it)
    and hashes it with
    :func:`~repro.core.fingerprint.taskset_fingerprint` — the same
    content hash the verdict cache keys on.  Items with equal
    fingerprints are analysis *duplicates*: the orchestrator's
    cache-aware placement clusters them onto one shard so every repeat
    after the first is a warm cache hit.
    """
    from repro.core.fingerprint import taskset_fingerprint

    fingerprints: list[str] = []
    for item in range(spec.total_items):
        point_index, taskset_index = divmod(item, spec.n_tasksets)
        rng = spec.taskset_rng(point_index, taskset_index)
        taskset = generate_taskset(
            rng, spec.utilizations[point_index], spec.profile
        )
        fingerprints.append(taskset_fingerprint(taskset))
    return tuple(fingerprints)


#: ``(mode, directory)`` describing the verdict cache of one run;
#: ``None`` = cache off.  Travels inside executor payloads, so it must
#: stay a plain picklable value.
CacheConfig = tuple[str, str] | None


#: Process-level verdict-cache handles keyed by ``(mode, directory)``.
#: Pool workers reuse one handle (and its in-memory entry map) across
#: every chunk they evaluate; the handle's own per-pid shard files keep
#: concurrent writers from ever sharing a file (see
#: :mod:`repro.engine.vcache`).
_RUN_CACHES: dict[tuple[str, str], VerdictCache] = {}


def _cache_for(config: CacheConfig) -> VerdictCache | None:
    if config is None:
        return None
    cache = _RUN_CACHES.get(config)
    if cache is None:
        mode, directory = config
        cache = VerdictCache(directory, mode=mode)
        _RUN_CACHES[config] = cache
    return cache


class _CacheSession:
    """Per-run view of a shared cache with private hit/miss counters.

    The :class:`~repro.engine.vcache.VerdictCache` handle is shared by
    every run in the process (and every thread, under the thread
    executor), so diffing its *global* counters around a run would
    attribute concurrent runs' lookups to each other.  Each run instead
    wraps the handle in one of these: same lookups, but the counters
    belong to this run alone.

    Besides hits and misses the session also attributes the cache's
    *health* counters — ``swept`` (torn lines discarded while opening
    shards) and ``stale`` (index entries that no longer matched their
    shard bytes) — by diffing the handle's globals around each lookup.
    The diff window is one ``get`` call, so attribution is exact under
    process executors and merely best-effort (telemetry, never results)
    when threads interleave inside a call.
    """

    __slots__ = ("_cache", "hits", "misses", "swept", "stale")

    def __init__(self, cache: VerdictCache) -> None:
        self._cache = cache
        self.hits = 0
        self.misses = 0
        self.swept = 0
        self.stale = 0

    def key_for(self, *args, **kwargs) -> str:
        return self._cache.key_for(*args, **kwargs)

    def get(self, key: str):
        swept, stale = self._cache.swept, self._cache.stale
        verdict = self._cache.get(key)
        self.swept += self._cache.swept - swept
        self.stale += self._cache.stale - stale
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def put(self, key: str, verdict) -> None:
        self._cache.put(key, verdict)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "swept": self.swept,
            "stale": self.stale,
        }


def _run_chunk(payload, cache=None) -> ChunkRecord:
    """Evaluate work items ``start .. stop - 1`` (runs in a worker).

    ``payload`` is ``(spec, start, stop)`` or, with a verdict cache
    enabled, ``(spec, start, stop, cache_config)``; ``cache`` (a
    :class:`_CacheSession`) overrides the payload's config when the
    caller wants per-run hit/miss attribution.
    """
    spec, start, stop = payload[0], payload[1], payload[2]
    if cache is None and len(payload) > 3:
        cache = _cache_for(payload[3])
    counts: dict[int, dict[str, int]] = {}
    for item in range(start, stop):
        point_index, taskset_index = divmod(item, spec.n_tasksets)
        rng = spec.taskset_rng(point_index, taskset_index)
        taskset = generate_taskset(rng, spec.utilizations[point_index], spec.profile)
        # Each item is generated and analysed on its own: the chunk only
        # amortises the executor round-trip, never the analysis.
        multi = analyze_taskset_multi(
            taskset,
            spec.m,
            spec.methods,
            mu_method=spec.mu_method,
            rho_solver=spec.rho_solver,
            cache=cache,
        )
        point = counts.setdefault(
            point_index, {method.value: 0 for method in spec.methods}
        )
        for name, schedulable in multi.schedulable.items():
            if schedulable:
                point[name] += 1
    return ChunkRecord(start, stop, counts)


@dataclass(frozen=True, slots=True)
class ProgressEvent:
    """One completed work item (or a chunk's worth, replayed item-wise)."""

    utilization: float
    point_index: int
    done_in_point: int
    n_tasksets: int
    done_items: int
    total_items: int


EngineProgress = Callable[[ProgressEvent], None]


def _run_runs(
    payload,
) -> list[tuple[ChunkRecord, float, dict[str, int] | None]]:
    """Evaluate a batch of contiguous runs (one executor round-trip).

    Sharded item sets are strided, so their contiguous runs are tiny
    (often single items); batching many runs into one payload keeps the
    per-task pickling/IPC cost proportional to the chunk size, not the
    item count, while records stay per-run (contiguous) so the
    checkpoint/artifact schema is unchanged.

    ``payload`` is ``(spec, runs)`` or ``(spec, runs, cache_config)``.
    Each run is timed *in the worker* and returned as ``(record,
    seconds, cache_stats)``: the wall-time telemetry drives the
    adaptive chunk sizer and both it and the per-run verdict-cache
    hit/miss deltas (``None`` with the cache off) are published on the
    stream's chunk lines for external consumers (the orchestrator's
    sizer, ``sweep-status``).
    """
    spec, runs = payload[0], payload[1]
    config: CacheConfig = payload[2] if len(payload) > 2 else None
    cache = _cache_for(config)
    timed: list[tuple[ChunkRecord, float, dict[str, int] | None]] = []
    for start, stop in runs:
        session = _CacheSession(cache) if cache is not None else None
        begin = time.perf_counter()
        record = _run_chunk((spec, start, stop), cache=session)
        seconds = time.perf_counter() - begin
        stats = session.stats() if session is not None else None
        timed.append((record, seconds, stats))
    return timed


def _contiguous_runs(items: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal ``(start, stop)`` runs of consecutive item indexes."""
    runs: list[tuple[int, int]] = []
    for item in sorted(items):
        if runs and item == runs[-1][1]:
            runs[-1] = (runs[-1][0], item + 1)
        else:
            runs.append((item, item + 1))
    return runs


class SweepEngine:
    """Run :class:`SweepSpec` instances over a pluggable executor.

    Parameters
    ----------
    executor:
        A :class:`~repro.engine.executors.SerialExecutor` (default) or
        :class:`~repro.engine.executors.MultiprocessExecutor`.
    chunk_size:
        Work items per executor task.  Default: 1 for the serial
        executor (exact per-item progress); for pool executors the
        engine sizes chunks *adaptively* from per-chunk wall-time
        telemetry (see ``chunker``).  An explicit value pins the size.
    chunker:
        The :class:`~repro.engine.chunking.AdaptiveChunker` used when
        ``chunk_size`` is not pinned and the executor is a pool; pass a
        pre-seeded one to start from known timings (the orchestrator
        seeds relaunched shards from their stream telemetry).  Default:
        a fresh chunker.
    checkpoint_path:
        When set, completed work is periodically saved there and a
        matching interrupted sweep resumes from it.  Stale atomic-write
        temp files (``<checkpoint>.<pid>.tmp``, orphaned by a killed
        process) are cleaned up on start.
    checkpoint_interval:
        Minimum seconds between checkpoint writes (0 = every chunk).
    progress:
        Optional per-item :class:`ProgressEvent` callback.  With a pool
        executor, events for a chunk fire together on its completion.
    cache:
        Verdict-cache mode: ``"off"`` (default), ``"read"`` or
        ``"readwrite"``.  Cached verdicts are keyed by analysis content
        (:mod:`repro.engine.vcache`), so any mode yields bit-identical
        results — hits merely skip recomputation.
    cache_dir:
        Verdict-cache directory; ``None`` means
        :data:`~repro.engine.vcache.DEFAULT_CACHE_DIR`.
    """

    #: Batches dispatched per adaptive wave, as a multiple of the
    #: executor's worker count: enough in flight that workers never idle
    #: at a wave boundary, few enough that sizing reacts quickly.
    WAVE_FACTOR = 4

    def __init__(
        self,
        executor: Executor | None = None,
        chunk_size: int | None = None,
        chunker: AdaptiveChunker | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_interval: float = 5.0,
        progress: EngineProgress | None = None,
        cache: str = "off",
        cache_dir: str | Path | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise AnalysisError(f"chunk_size must be >= 1, got {chunk_size}")
        if cache not in CACHE_MODES:
            raise CacheError(
                f"unknown cache mode {cache!r}; expected one of {CACHE_MODES}"
            )
        self.executor = executor if executor is not None else SerialExecutor()
        self.chunk_size = chunk_size
        self.chunker = chunker
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_interval = checkpoint_interval
        self.progress = progress
        self.cache = cache
        self.cache_dir = str(cache_dir) if cache_dir is not None else None

    # ------------------------------------------------------------------
    def run(
        self,
        spec: SweepSpec,
        shard: ShardSpec | None = None,
        shard_out: str | Path | None = None,
        stream: str | Path | None = None,
        items: Sequence[int] | None = None,
    ) -> SweepResult:
        """Execute the sweep (resuming from a checkpoint when present).

        Parameters
        ----------
        spec:
            What to sweep.  A declarative
            :class:`~repro.engine.jobspec.JobSpec` runs through
            :class:`~repro.engine.session.Session` instead, whose
            registry hook builds this engine from the job's execution
            policy and passes the workload's :class:`SweepSpec` here.
        shard:
            When set, evaluate only this slice of the item space; the
            returned partial result reports, per utilisation point, the
            counts over the shard's items (with matching ``n_tasksets``
            denominators).  All shards of one spec merge bit-identically
            to the unsharded run via
            :func:`~repro.engine.shard.merge_shards`.
        shard_out:
            Write a shard artifact here on completion.  Without an
            explicit ``shard`` this means "the whole sweep as shard
            1/1" — a full run's artifact is mergeable on its own.
        stream:
            JSONL stream path; every completed chunk is appended and
            flushed the moment it finishes (checkpoint-restored chunks
            are replayed first so the file is self-contained).
        items:
            Explicit work-item subset (within the shard's slice) to
            evaluate instead of the whole slice — the elastic
            *sub-shard* path: the orchestrator splits a straggling
            shard's remaining items across idle slots, and the
            resulting artifacts (same shard coordinates, disjoint item
            subsets) reassemble bit-identically through
            :func:`~repro.engine.shard.merge_shards`.  Item RNG
            derivation depends only on the item index, so any subset
            produces exactly the per-item results of the full run.
        """
        start_time = time.perf_counter()
        if shard is None and (shard_out is not None or items is not None):
            shard = ShardSpec(0, 1)
        if items is not None:
            planned = sorted({int(item) for item in items})
            if not planned:
                raise AnalysisError("items subset names no work items")
            bad = [
                i for i in planned
                if not 0 <= i < spec.total_items or not shard.owns(i)
            ]
            if bad:
                raise AnalysisError(
                    f"item {bad[0]} is outside shard {shard.label}'s slice "
                    f"of the {spec.total_items}-item space"
                )
        else:
            planned = (
                list(shard.items(spec.total_items))
                if shard is not None
                else list(range(spec.total_items))
            )
        planned_set = set(planned)
        expected_in_point = [0] * spec.n_points
        for item in planned:
            expected_in_point[item // spec.n_tasksets] += 1

        counts = {
            point: {method.value: 0 for method in spec.methods}
            for point in range(spec.n_points)
        }
        done_in_point = [0] * spec.n_points
        done_items = 0

        fingerprint = spec.fingerprint()
        # A shard's checkpoint covers a different item subset, so it must
        # never be resumed by another shard (or the unsharded run): the
        # checkpoint identity is shard-qualified, the artifact's is not.
        checkpoint_fingerprint = fingerprint
        if shard is not None and shard.count > 1:
            checkpoint_fingerprint = f"{fingerprint}@shard{shard.label}"

        records: list[ChunkRecord] = []
        covered: set[int] = set()
        if self.checkpoint_path is not None:
            # A killed previous run may have orphaned its atomic-write
            # temp next to the checkpoint; sweep them before resuming.
            clean_stale_tmps(self.checkpoint_path)
            loaded = load_checkpoint(self.checkpoint_path)
            if loaded is not None:
                if loaded.fingerprint != checkpoint_fingerprint:
                    raise AnalysisError(
                        f"checkpoint {self.checkpoint_path} belongs to a "
                        "different sweep (spec fingerprint mismatch); "
                        "delete it or use another path"
                    )
                records = list(loaded.records)
                covered = loaded.covered_items()
                stale = [i for i in covered if i not in planned_set]
                if stale:
                    raise AnalysisError(
                        f"checkpoint {self.checkpoint_path} covers item "
                        f"{max(stale)}, outside this run's "
                        f"{len(planned)} planned items"
                    )
                for record in records:
                    done_items += record.stop - record.start
                    for point, methods in record.counts.items():
                        for method, count in methods.items():
                            counts[point][method] += count
                    for item in range(record.start, record.stop):
                        done_in_point[item // spec.n_tasksets] += 1

        remaining = [i for i in planned if i not in covered]
        sizer: AdaptiveChunker | None = None
        if self.chunk_size is None and self.executor.jobs > 1:
            sizer = self.chunker if self.chunker is not None else AdaptiveChunker()

        # The cache config rides inside every executor payload: pool
        # workers open their own handle (with per-pid write shards) on
        # first use, so no cross-process state needs coordinating here.
        cache_config: CacheConfig = None
        if self.cache != "off":
            cache_config = (
                self.cache,
                self.cache_dir if self.cache_dir is not None
                else DEFAULT_CACHE_DIR,
            )

        writer = StreamWriter(stream) if stream is not None else None
        try:
            if writer is not None:
                writer.write_header(
                    kind=KIND_SWEEP,
                    fingerprint=fingerprint,
                    total_items=spec.total_items,
                    meta=sweep_meta(spec),
                    shard=(
                        {"index": shard.index, "count": shard.count}
                        if shard is not None
                        else None
                    ),
                )
                for record in records:
                    writer.write_chunk(record, replayed=True)

            last_save = time.monotonic()
            position = 0
            while position < len(remaining):
                # One *wave* of executor payloads.  With a pinned chunk
                # size a single wave covers everything (the legacy
                # behaviour); adaptively-sized runs dispatch a few
                # batches per wave, observe their worker-measured
                # wall-times, and re-size the next wave — pools persist
                # across map_unordered calls, so waves cost no respawns.
                if sizer is None:
                    wave = remaining[position:]
                    size = self.chunk_size
                else:
                    size = sizer.chunk_size()
                    wave = remaining[
                        position : position
                        + size * self.executor.jobs * self.WAVE_FACTOR
                    ]
                position += len(wave)
                payloads = [
                    (spec, tuple(batch), cache_config)
                    for batch in self._chunks(wave, size)
                ]
                for batch in self.executor.map_unordered(_run_runs, payloads):
                    for record, chunk_seconds, cache_stats in batch:
                        records.append(record)
                        if sizer is not None:
                            sizer.observe(
                                record.stop - record.start, chunk_seconds
                            )
                        if writer is not None:
                            writer.write_chunk(
                                record,
                                elapsed_seconds=chunk_seconds,
                                cache=cache_stats,
                            )
                        for point, methods in record.counts.items():
                            for method, count in methods.items():
                                counts[point][method] += count
                        for item in range(record.start, record.stop):
                            point = item // spec.n_tasksets
                            done_in_point[point] += 1
                            done_items += 1
                            if self.progress is not None:
                                self.progress(
                                    ProgressEvent(
                                        utilization=spec.utilizations[point],
                                        point_index=point,
                                        done_in_point=done_in_point[point],
                                        n_tasksets=expected_in_point[point],
                                        done_items=done_items,
                                        total_items=len(planned),
                                    )
                                )
                    if self.checkpoint_path is not None:
                        now = time.monotonic()
                        if now - last_save >= self.checkpoint_interval:
                            save_checkpoint(
                                self.checkpoint_path,
                                SweepCheckpoint(checkpoint_fingerprint, records),
                            )
                            last_save = now

            if self.checkpoint_path is not None:
                save_checkpoint(
                    self.checkpoint_path,
                    SweepCheckpoint(checkpoint_fingerprint, records),
                )

            elapsed = time.perf_counter() - start_time
            if writer is not None:
                writer.write_summary(done_items, elapsed)
        finally:
            if writer is not None:
                writer.close()

        if shard_out is not None:
            save_shard(
                shard_out,
                ShardArtifact(
                    kind=KIND_SWEEP,
                    fingerprint=fingerprint,
                    shard=shard,
                    total_items=spec.total_items,
                    meta=sweep_meta(spec),
                    records=records,
                    elapsed_seconds=elapsed,
                ),
            )

        points = tuple(
            SweepPoint(utilization, expected_in_point[point], counts[point])
            for point, utilization in enumerate(spec.utilizations)
        )
        return SweepResult(
            m=spec.m,
            label=spec.label,
            seed=spec.seed,
            points=points,
            methods=tuple(method.value for method in spec.methods),
            elapsed_seconds=time.perf_counter() - start_time,
        )

    # ------------------------------------------------------------------
    def _chunks(
        self, remaining: Sequence[int], size: int | None = None
    ) -> list[list[tuple[int, int]]]:
        """Batch the remaining items into executor payloads.

        Each batch is a list of contiguous ``(start, stop)`` runs whose
        total item count is at most the chunk size.  For the usual
        contiguous item sets a batch is exactly one run; for strided
        (sharded) sets, many single-item runs share a batch so one
        executor round-trip still covers a chunk's worth of work.

        ``size`` overrides the engine's pinned ``chunk_size`` (the
        adaptive run loop passes the sizer's current suggestion).
        """
        if not remaining:
            return []
        if size is None:
            size = self.chunk_size
        if size is None:
            if self.executor.jobs <= 1:
                size = 1
            else:
                size = max(1, math.ceil(len(remaining) / (self.executor.jobs * 8)))
        pieces: list[tuple[int, int]] = []
        for start, stop in _contiguous_runs(remaining):
            for lo in range(start, stop, size):
                pieces.append((lo, min(lo + size, stop)))
        batches: list[list[tuple[int, int]]] = []
        batch: list[tuple[int, int]] = []
        batch_items = 0
        for start, stop in pieces:
            if batch and batch_items + (stop - start) > size:
                batches.append(batch)
                batch = []
                batch_items = 0
            batch.append((start, stop))
            batch_items += stop - start
        if batch:
            batches.append(batch)
        return batches

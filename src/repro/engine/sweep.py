"""The sweep engine: every experiment as per-item rows over chunked work.

Every experiment is the same computation: a space of work items, each
evaluated on its own into a few *rows* of JSON primitives, and the rows
reduced in item order to the experiment's result.  A sweep kind
supplies four things —

* its per-item payloads (:meth:`SweepSpec.payloads`,
  :meth:`CorpusSweep.payloads`), built in the calling process;
* a top-level, picklable ``evaluate(payload, cache) -> rows``;
* its row codec and its item-order reduction (registered with
  :mod:`repro.engine.registry`);

— and :class:`SweepEngine` does the rest for all of them: strided
shards, fixed-size chunks on the serial or the process-pool executor
(:mod:`repro.engine.executors`), checkpoint/resume, JSONL streams and
shard artifacts.

Two item shapes exist.  A utilisation-grid sweep (figure2, group2;
:class:`SweepSpec`) evaluates item ``point * n_tasksets + index`` on
the task-set drawn from

    default_rng(seed, spawn_key=(point_index, taskset_index))

(:mod:`repro.rng`: numpy's ``SeedSequence(seed, spawn_key=...)``
stream, equal to ``SeedSequence(seed).spawn(P)[point].spawn(N)[index]``
but needing no shared spawning state) — and its row is one boolean per
analysis method; its reduction counts them per point.  A corpus sweep
(splitsweep, sensitivity, simulate, timing; :class:`CorpusSweep`)
builds every item's payload up front, e.g. a corpus drawn from one
``default_rng(seed)`` stream.  Either way an item's rows depend on its
index alone, so any chunking, executor, shard, resume or completion
order reduces to bit-identical results.

Checkpointing
-------------
With a checkpoint path, completed items are periodically written to a
JSON file (:mod:`repro.engine.checkpoint`); an interrupted sweep re-run
with the same spec resumes from the covered items instead of restarting.
A checkpoint written by a *different* spec is rejected by fingerprint.

Sharding and streaming
----------------------
:meth:`SweepEngine.run` optionally evaluates only one
:class:`~repro.engine.shard.ShardSpec` slice of the item space, writing
a versioned shard artifact that
:func:`~repro.engine.registry.merge_artifacts` later recombines into
the exact single-process result; a ``stream`` path additionally emits
every completed item as one JSONL line the moment it finishes
(:mod:`repro.engine.streaming`).
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from repro.exceptions import AnalysisError, CacheError
from repro.core.analyzer import AnalysisMethod, analyze_taskset_multi
from repro.core.blocking import RhoSolver
from repro.core.workload import MuMethod
from repro.engine.checkpoint import (
    Records,
    SweepCheckpoint,
    clean_stale_tmps,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine.executors import Executor, SerialExecutor
from repro.engine.results import SweepPoint, SweepResult
from repro.engine.shard import ShardArtifact, ShardSpec, save_shard
from repro.engine.streaming import StreamWriter
from repro.engine.vcache import CACHE_MODES, DEFAULT_CACHE_DIR, VerdictCache, coordinate_key
from repro.generator.profiles import TasksetProfile
from repro.generator.taskset_gen import generate_taskset
from repro.rng import Generator, default_rng

#: Methods compared in the paper's evaluation, in plot order.
DEFAULT_METHODS: tuple[AnalysisMethod, ...] = (
    AnalysisMethod.FP_IDEAL,
    AnalysisMethod.LP_ILP,
    AnalysisMethod.LP_MAX,
)


def _evaluate_sweep_item(payload, cache=None) -> list[tuple[bool, ...]]:
    """One grid item: its task-set's verdicts, in ``spec.methods`` order.

    ``payload`` is ``(spec, item)``; the item's task-set is regenerated
    from its own seed, so payloads stay tiny.  With a verdict ``cache``
    the row is looked up by the item's coordinates
    (:meth:`SweepSpec.item_key`) first, so a hit neither generates nor
    analyses anything.
    """
    spec, item = payload
    point_index, taskset_index = divmod(item, spec.n_tasksets)
    if cache is not None:
        key = spec.item_key(point_index, taskset_index)
        row = cache.get(key)
        if row is not None:
            return [row]
    rng = spec.taskset_rng(point_index, taskset_index)
    taskset = generate_taskset(rng, spec.utilizations[point_index], spec.profile)
    multi = analyze_taskset_multi(
        taskset,
        spec.m,
        spec.methods,
        mu_method=spec.mu_method,
        rho_solver=spec.rho_solver,
    )
    row = tuple(multi.schedulable[method.value] for method in spec.methods)
    if cache is not None:
        cache.put(key, row)
    return [row]


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

    #: Artifact tag of the utilisation-grid sweeps (figure2 and group2).
    kind: ClassVar[str] = "sweep"
    evaluate: ClassVar = staticmethod(_evaluate_sweep_item)

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

    @property
    def meta(self) -> dict:
        """The JSON-safe slice of the spec :func:`reduce_sweep` needs."""
        return {
            "m": self.m,
            "label": self.label,
            "seed": self.seed,
            "utilizations": list(self.utilizations),
            "n_tasksets": self.n_tasksets,
            "methods": [method.value for method in self.methods],
        }

    def payloads(self, items: Sequence[int]) -> list:
        """Per-item payloads: the spec and the item index."""
        return [(self, item) for item in items]

    def taskset_rng(self, point_index: int, taskset_index: int) -> Generator:
        """The work item's private RNG, independent of execution order."""
        return default_rng(self.seed, spawn_key=(point_index, taskset_index))

    def item_key(self, point_index: int, taskset_index: int) -> str:
        """The work item's verdict-cache key: its generation coordinates.

        Everything that fixes the item's task-set and its verdicts, and
        nothing else: ``label``, ``n_tasksets`` and how the sweep is
        executed (chunks, shards, jobs) stay out, so any run of the
        same coordinates shares the entry.
        """
        return coordinate_key(
            repr(self.profile),
            self.seed,
            point_index,
            repr(self.utilizations[point_index]),
            taskset_index,
            self.m,
            tuple(method.value for method in self.methods),
            self.mu_method,
            self.rho_solver,
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


def reduce_sweep(artifact: ShardArtifact) -> SweepResult:
    """Count each point's schedulable verdicts over an artifact's items.

    Every point reports the items the artifact covers as its
    denominator: ``n_tasksets`` for a whole sweep, fewer for a shard.
    """
    meta = artifact.meta
    utilizations = [float(u) for u in meta["utilizations"]]
    methods = tuple(str(name) for name in meta["methods"])
    n_tasksets = int(meta["n_tasksets"])
    sizes = [0] * len(utilizations)
    totals = [[0] * len(methods) for _ in utilizations]
    for item, (verdicts,) in sorted(artifact.records.items()):
        point = item // n_tasksets
        sizes[point] += 1
        totals[point] = [
            total + bool(ok)
            for total, ok in zip(totals[point], verdicts, strict=True)
        ]
    return SweepResult(
        m=int(meta["m"]),
        label=str(meta["label"]),
        seed=int(meta["seed"]),
        points=tuple(
            SweepPoint(utilization, sizes[point], dict(zip(methods, totals[point])))
            for point, utilization in enumerate(utilizations)
        ),
        methods=methods,
        elapsed_seconds=artifact.elapsed_seconds,
    )


@dataclass(frozen=True, slots=True)
class CorpusSweep:
    """A sweep whose item payloads are built up front, in item order.

    The split sweep, sensitivity, simulate and timing kinds draw their
    corpus from one ``default_rng(seed)`` stream (or derive it per
    item); :attr:`corpus` builds the whole payload list in the calling
    process and the engine ships each item's payload to its worker.

    Attributes
    ----------
    kind:
        Artifact tag (the kind's registered ``artifact_kind``).
    digest:
        The sweep's fingerprint.
    total_items:
        Item count.
    meta:
        JSON-safe metadata the kind's reduction needs.
    evaluate:
        Top-level ``evaluate(payload, cache) -> rows``.
    corpus:
        Builds every item's payload, in item order.
    """

    kind: str
    digest: str
    total_items: int
    meta: dict
    evaluate: Callable[..., list]
    corpus: Callable[[], Sequence]

    def fingerprint(self) -> str:
        return self.digest

    def payloads(self, items: Sequence[int]) -> list:
        corpus = self.corpus()
        return [corpus[item] for item in items]


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


#: One evaluated item: ``(item, rows, seconds, cache_stats)``.
ItemResult = tuple[int, list, float, dict[str, int] | None]


def _cache_counters(cache: VerdictCache) -> dict[str, int]:
    """The handle's lookup and health counters, as a stream line's keys."""
    return {"hits": cache.hits, "misses": cache.misses, "swept": cache.swept}


def _run_chunk(payload, cache: VerdictCache | None = None) -> list[ItemResult]:
    """Evaluate work items ``payload[1] .. payload[2] - 1`` (in a worker).

    ``payload`` is ``(evaluate, start, stop, item_payloads)``: the
    kind's top-level evaluation function and one payload per item.
    Each item is timed *in the worker*; its verdict-cache deltas are
    the handle's counters diffed around the item (``None`` with the
    cache off).  Both are published on the item's stream line.
    """
    evaluate, start, stop, item_payloads = payload
    done: list[ItemResult] = []
    for item, item_payload in zip(range(start, stop), item_payloads, strict=True):
        before = _cache_counters(cache) if cache is not None else None
        begin = time.perf_counter()
        rows = evaluate(item_payload, cache)
        seconds = time.perf_counter() - begin
        stats = None
        if before is not None:
            stats = {
                key: count - before[key]
                for key, count in _cache_counters(cache).items()
            }
        done.append((item, rows, seconds, stats))
    return done


def _run_batch(payload) -> list[ItemResult]:
    """Evaluate a batch of contiguous runs (one executor round-trip).

    Sharded item sets are strided, so their contiguous runs are tiny
    (often single items); batching many runs into one payload keeps the
    per-task pickling/IPC cost proportional to the chunk size, not the
    item count.  ``payload`` is ``(evaluate, runs, cache_config)`` with
    ``runs`` a list of ``(start, stop, item_payloads)``.
    """
    evaluate, runs, config = payload
    cache = _cache_for(config)
    done: list[ItemResult] = []
    for start, stop, item_payloads in runs:
        done.extend(_run_chunk((evaluate, start, stop, item_payloads), cache))
    return done


#: Most items in one pool chunk.  A pool run writes an item's stream
#: line and checkpoint entry only when the item's chunk returns, so the
#: cap bounds how coarse checkpoints and stream lines get by the cost
#: of a few items, not by a share of the run: a killed run loses at
#: most one short chunk per worker.
MAX_POOL_CHUNK = 16


def _contiguous_runs(items: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal ``(start, stop)`` runs of consecutive item indexes."""
    runs: list[tuple[int, int]] = []
    for item in sorted(items):
        if runs and item == runs[-1][1]:
            runs[-1] = (runs[-1][0], item + 1)
        else:
            runs.append((item, item + 1))
    return runs


def _batches(items: Sequence[int], size: int) -> list[list[tuple[int, int]]]:
    """Batch work items into executor payloads of at most ``size`` items.

    Each batch is a list of contiguous ``(start, stop)`` runs.  For the
    usual contiguous item sets a batch is exactly one run; for strided
    (sharded) sets, many single-item runs share a batch so one executor
    round-trip still covers a chunk's worth of work.
    """
    batches: list[list[tuple[int, int]]] = []
    batch: list[tuple[int, int]] = []
    batch_items = 0
    for start, stop in _contiguous_runs(items):
        for lo in range(start, stop, size):
            hi = min(lo + size, stop)
            if batch and batch_items + (hi - lo) > size:
                batches.append(batch)
                batch = []
                batch_items = 0
            batch.append((lo, hi))
            batch_items += hi - lo
    if batch:
        batches.append(batch)
    return batches


class SweepEngine:
    """Run sweeps (:class:`SweepSpec`, :class:`CorpusSweep`) over an executor.

    Parameters
    ----------
    executor:
        A :class:`~repro.engine.executors.SerialExecutor` (default) or
        :class:`~repro.engine.executors.MultiprocessExecutor`.
    chunk_size:
        Work items per executor task.  Default: 1 for the serial
        executor (exact per-item progress); ``min(ceil(remaining / (8 ×
        jobs)), MAX_POOL_CHUNK)`` for a pool, so every worker gets
        about eight chunks (more once the cap binds), all sent in one
        :meth:`~repro.engine.executors.Executor.map_unordered` call.
        An explicit value pins the size.
    checkpoint_path:
        When set, completed work is periodically saved there and a
        matching interrupted sweep resumes from it.  Stale atomic-write
        temp files (``<checkpoint>.<pid>.tmp``, orphaned by a killed
        process) are cleaned up on start.
    checkpoint_interval:
        Minimum seconds between checkpoint writes (0 = every chunk).
    cache:
        Verdict-cache mode: ``"off"`` (default), ``"read"`` or
        ``"readwrite"``.  A grid item's row is keyed by its generation
        coordinates and a salt of the code that computes it
        (:mod:`repro.engine.vcache`), so any mode yields bit-identical
        results — a hit merely skips generation and analysis.  Corpus
        kinds never consult it.
    cache_dir:
        Verdict-cache directory; ``None`` means
        :data:`~repro.engine.vcache.DEFAULT_CACHE_DIR`.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        chunk_size: int | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_interval: float = 5.0,
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
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_interval = checkpoint_interval
        self.cache = cache
        self.cache_dir = str(cache_dir) if cache_dir is not None else None

    # ------------------------------------------------------------------
    def run(
        self,
        spec: SweepSpec | CorpusSweep,
        shard: ShardSpec | None = None,
        shard_out: str | Path | None = None,
        stream: str | Path | None = None,
    ):
        """Execute the sweep (resuming from a checkpoint when present).

        Returns the kind's reduction of the evaluated items: a
        :class:`~repro.engine.results.SweepResult` for a grid sweep,
        the kind's own result type otherwise.

        Parameters
        ----------
        spec:
            What to sweep.  A declarative
            :class:`~repro.engine.jobspec.JobSpec` runs through
            :class:`~repro.engine.session.Session` instead, which builds
            this engine from the job's execution policy and passes the
            workload's sweep here.
        shard:
            When set, evaluate only this slice of the item space; the
            returned partial result reduces the shard's items only
            (a grid sweep's points then report the shard's per-point
            item counts as their denominators).  All shards of one spec
            merge bit-identically to the unsharded run via
            :func:`~repro.engine.registry.merge_artifacts`.
        shard_out:
            Write a shard artifact here on completion.  Without an
            explicit ``shard`` this means "the whole sweep as shard
            1/1" — a full run's artifact is mergeable on its own.
        stream:
            JSONL stream path; every completed item is appended and
            flushed the moment it finishes (checkpoint-restored items
            are replayed first so the file is self-contained).
        """
        from repro.engine.registry import spec_for_artifact

        start_time = time.perf_counter()
        kind = spec_for_artifact(spec.kind)
        if shard is None and shard_out is not None:
            shard = ShardSpec(0, 1)
        planned = (
            list(shard.items(spec.total_items))
            if shard is not None
            else list(range(spec.total_items))
        )

        fingerprint = spec.fingerprint()
        # A shard's checkpoint covers a different item subset, so it must
        # never be resumed by another shard (or the unsharded run): the
        # checkpoint identity is shard-qualified, the artifact's is not.
        checkpoint_fingerprint = fingerprint
        if shard is not None and shard.count > 1:
            checkpoint_fingerprint = f"{fingerprint}@shard{shard.label}"

        records: Records = {}
        if self.checkpoint_path is not None:
            # A killed previous run may have orphaned its atomic-write
            # temp next to the checkpoint; sweep them before resuming.
            clean_stale_tmps(self.checkpoint_path)
            loaded = load_checkpoint(self.checkpoint_path, kind.row_codec)
            if loaded is not None:
                if loaded.fingerprint != checkpoint_fingerprint:
                    raise AnalysisError(
                        f"checkpoint {self.checkpoint_path} belongs to a "
                        "different sweep (spec fingerprint mismatch); "
                        "delete it or use another path"
                    )
                stale = loaded.covered_items() - set(planned)
                if stale:
                    raise AnalysisError(
                        f"checkpoint {self.checkpoint_path} covers item "
                        f"{max(stale)}, outside this run's "
                        f"{len(planned)} planned items"
                    )
                records = loaded.records

        remaining = [i for i in planned if i not in records]
        size = self.chunk_size
        if size is None:
            jobs = self.executor.jobs
            size = 1 if jobs <= 1 else min(
                MAX_POOL_CHUNK, max(1, math.ceil(len(remaining) / (8 * jobs)))
            )

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

        meta = spec.meta
        writer = None
        if stream is not None:
            writer = StreamWriter(
                stream,
                kind=spec.kind,
                fingerprint=fingerprint,
                total_items=spec.total_items,
                meta=meta,
                shard=(
                    {"index": shard.index, "count": shard.count}
                    if shard is not None
                    else None
                ),
            )
        try:
            if writer is not None:
                for item in sorted(records):
                    writer.write_item(item, records[item], replayed=True)

            payloads = (
                dict(zip(remaining, spec.payloads(remaining))) if remaining else {}
            )
            batches = [
                (
                    spec.evaluate,
                    [
                        (start, stop, [payloads[i] for i in range(start, stop)])
                        for start, stop in batch
                    ],
                    cache_config,
                )
                for batch in _batches(remaining, size)
            ]
            last_save = time.monotonic()
            for done in self.executor.map_unordered(_run_batch, batches):
                for item, rows, seconds, cache_stats in done:
                    records[item] = rows
                    if writer is not None:
                        writer.write_item(
                            item, rows, elapsed_seconds=seconds,
                            cache=cache_stats,
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
                writer.write_summary(len(records), elapsed)
        finally:
            if writer is not None:
                writer.close()

        artifact = ShardArtifact(
            kind=spec.kind,
            fingerprint=fingerprint,
            shard=shard if shard is not None else ShardSpec(0, 1),
            total_items=spec.total_items,
            meta=meta,
            records=records,
            elapsed_seconds=elapsed,
        )
        if shard_out is not None:
            save_shard(shard_out, artifact)
        return kind.reduce(artifact)

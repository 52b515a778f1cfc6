"""The orchestrator tier: one command runs a whole sharded sweep.

PR 2 made sweeps shardable (``--shard I/N`` invocations merging
bit-identically); a human still had to launch every shard and run
``sweep-merge``.  The orchestrator closes that loop.  It owns whole
:class:`~repro.engine.shard.ShardSpec` s:

1. **partition** — an :class:`OrchestrationPlan` (built from a
   :class:`~repro.engine.jobspec.JobSpec` by :func:`plan_from_jobspec`,
   without running it) fixes the sweep fingerprint, the item count and
   the base command line;
2. **dispatch** — each shard becomes one ``python -m repro sweep-run
   --job-json '<spec>' --shard I/N --shard-out ... --stream ...
   [--checkpoint ...]`` invocation — the declarative
   :class:`~repro.engine.jobspec.JobSpec` embedded verbatim in the
   command line, placement appended as overrides — run as a local
   subprocess by a :class:`~repro.engine.backends.LocalBackend`;
3. **observe** — a :class:`~repro.engine.livemerge.LiveMerger` tails
   every shard's JSONL stream as it grows and folds completed items
   into a cluster-wide progress view;
4. **heal** — failed or stalled shards are relaunched on a fresh slot
   (up to ``retries`` extra attempts each), resuming from their own
   checkpoints;
5. **re-partition** — with ``elastic=True``, a shard that trails the
   cluster while slots sit idle is killed and its *remaining* items
   (everything its checkpoint does not cover) are split into
   *sub-shards*, one per free slot, each dispatched as an ordinary
   invocation restricted to an explicit item subset
   (``--shard-items``); the first sub-shard inherits the straggler's
   checkpoint so no finished work is redone.  Sub-shard artifacts
   carry the original shard coordinates with disjoint item subsets and
   reassemble through the same merge as an unsplit run;
6. **merge** — completed shard artifacts are validated by fingerprint
   and coverage and reduced by the kind's registered reduction
   (:func:`~repro.engine.registry.merge_artifacts`), so the final
   result is bit-identical to the serial run or an error — never a
   silent mixture.

Everything lives under one output directory: shard artifacts, streams,
checkpoints, per-shard logs and an ``orchestration.json`` manifest,
which makes the run resumable (re-running the same command reuses
finished shard artifacts and resumes interrupted ones) and inspectable
(``sweep-status <dir>``, :func:`read_status`).
"""

from __future__ import annotations

import re
import shutil
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.exceptions import DispatchError, OrchestrationError, ShardError
from repro.engine.backends import LocalBackend, worker_env
from repro.engine.checkpoint import (
    FORMAT_VERSION,
    clean_stale_tmps,
    read_covered_items,
    write_json_atomic,
)
from repro.engine.livemerge import ClusterView, LiveMerger
from repro.engine.shard import ShardSpec, load_shard

#: Manifest file name inside every orchestration output directory.
MANIFEST_NAME = "orchestration.json"


@dataclass(frozen=True, slots=True)
class OrchestrationPlan:
    """Everything the orchestrator needs to know *without* running the sweep.

    Attributes
    ----------
    experiment:
        The job's workload kind (``"figure2"``, ``"splitsweep"``, ...),
        recorded in the manifest.
    kind:
        Artifact kind the shards will write (``"sweep"`` for the grid
        sweeps, the kind's own tag otherwise); recorded in the
        manifest and checked against every reused artifact.
    fingerprint:
        The unsharded spec fingerprint every shard artifact and stream
        header must match.
    total_items:
        The full sweep's work-item count.
    argv:
        Base command for one shard invocation, *without* the per-shard
        ``--shard/--shard-out/--stream/--checkpoint`` flags (the
        orchestrator appends those).
    publish:
        Publish the merged result into the durable result store
        (:mod:`repro.engine.store`) at finalisation, after the
        fingerprint-validated merge succeeds.
    store_dir:
        Result-store directory (``None`` = the store default) when
        ``publish`` is on.
    job_json:
        The originating JobSpec as a JSON string, recorded as
        publication provenance; ``None`` for plans not built from a
        job spec.
    """

    experiment: str
    kind: str
    fingerprint: str
    total_items: int
    argv: tuple[str, ...]
    publish: bool = False
    store_dir: str | None = None
    job_json: str | None = None


@dataclass(slots=True)
class _ShardJob:
    """Orchestrator-side state of one shard (or elastic sub-shard)."""

    shard: ShardSpec
    artifact: Path
    stream: Path
    #: ``None`` only for a finished partial reused as is (never launched).
    checkpoint: Path | None
    log: Path
    #: Unique key this job's stream is attached under in the live
    #: merger (== ``shard.index`` for whole shards; sub-shards get
    #: fresh keys above the shard count).
    merge_key: int = 0
    #: Human name for messages and the manifest (``"2/3"`` for a whole
    #: shard, ``"2/3+s1.2"`` for sub-shard 2 of split 1).
    label: str = ""
    #: Explicit item subset (sub-shards only); ``None`` = whole slice.
    items: list[int] | None = None
    attempts: int = 0
    state: str = "pending"  # pending | running | done | failed | split
    handle: object | None = None
    last_done_items: int = 0
    last_progress_at: float = field(default_factory=time.monotonic)
    launched_at: float = field(default_factory=time.monotonic)

    def planned_items(self, total: int) -> list[int]:
        return self.items if self.items is not None else list(self.shard.items(total))


@dataclass(frozen=True, slots=True)
class OrchestrationOutcome:
    """What a completed orchestration produced."""

    #: The merged, fingerprint-validated result: a
    #: :class:`~repro.engine.results.SweepResult` for sweep plans, the
    #: :class:`~repro.experiments.splitsweep.SplitSweepPoint` list for
    #: split sweeps.
    result: object
    #: Final live-merge snapshot (progress, telemetry, restarts).
    view: ClusterView
    #: Launch attempts per job (keyed by merge key; whole shards keep
    #: their shard index, elastic sub-shards get keys above the shard
    #: count).  1 = no retry needed, 0 = artifact reused from a
    #: previous run.
    attempts: dict[int, int]
    #: Extra attempts beyond the first, summed over shards.
    retries: int
    elapsed_seconds: float
    #: Elastic re-partitions performed (stragglers split onto idle
    #: slots); 0 when ``elastic`` was off or never triggered.
    splits: int = 0
    #: Result-store publication record (store path, run id, row
    #: counts) when the plan published; ``None`` otherwise.
    publication: dict | None = None


ProgressCallback = Callable[[ClusterView], None]


class Orchestrator:
    """Drive one :class:`OrchestrationPlan` to a merged result.

    Parameters
    ----------
    plan:
        What to run (see the plan builders below).
    out_dir:
        Directory owning every artifact/stream/checkpoint/log and the
        manifest.  Reusing the directory resumes: finished shards are
        reused, unfinished ones relaunched (resuming from their
        checkpoints).  A directory owned by a *different* sweep is
        rejected.
    backend:
        The :class:`~repro.engine.backends.LocalBackend` running shard
        commands; default one with ``workers`` slots.
    workers:
        Slot count for the default backend (ignored when ``backend`` is
        given).
    shards:
        How many shards to partition into; default: one per backend
        slot.
    retries:
        Extra launch attempts allowed per shard after a failure or
        stall.
    poll_interval:
        Seconds between dispatch/stream polls.
    stall_timeout:
        When set, a running shard whose stream makes no progress for
        this many seconds is killed and relaunched on a fresh slot
        (straggler recovery).  ``None`` disables.
    elastic:
        Enable elastic re-partitioning: when slots sit idle with no
        pending shards, the job with the most remaining items is killed
        and its remainder (read from its checkpoint, so finished work
        is kept) is split across the idle slots plus its own as
        sub-shard invocations.
    elastic_after:
        Seconds a job must have been running (since its last launch)
        before it may be split — the damping that keeps a short sweep
        from being shredded the moment a slot frees up.
    elastic_min_items:
        Never split a job with fewer remaining items than this.
    max_splits:
        Ceiling on split events per orchestration (sub-shards may
        themselves be split until the budget runs out).
    progress:
        Optional callback receiving the merged
        :class:`~repro.engine.livemerge.ClusterView` after every poll.
    """

    def __init__(
        self,
        plan: OrchestrationPlan,
        out_dir: str | Path,
        backend: LocalBackend | None = None,
        workers: int = 1,
        shards: int | None = None,
        retries: int = 2,
        poll_interval: float = 0.2,
        stall_timeout: float | None = None,
        elastic: bool = False,
        elastic_after: float = 2.0,
        elastic_min_items: int = 2,
        max_splits: int = 8,
        progress: ProgressCallback | None = None,
    ) -> None:
        if retries < 0:
            raise OrchestrationError(f"retries must be >= 0, got {retries}")
        if poll_interval < 0:
            raise OrchestrationError(
                f"poll_interval must be >= 0, got {poll_interval}"
            )
        if stall_timeout is not None and stall_timeout <= 0:
            raise OrchestrationError(
                f"stall_timeout must be > 0, got {stall_timeout}"
            )
        if elastic_after < 0:
            raise OrchestrationError(
                f"elastic_after must be >= 0, got {elastic_after}"
            )
        if elastic_min_items < 2:
            raise OrchestrationError(
                f"elastic_min_items must be >= 2, got {elastic_min_items}"
            )
        if max_splits < 0:
            raise OrchestrationError(f"max_splits must be >= 0, got {max_splits}")
        self.plan = plan
        # Absolute: the shard command lines name their artifact, stream
        # and checkpoint paths, which must not depend on the working
        # directory of whichever process reads them.
        self.out_dir = Path(out_dir).resolve()
        self.backend = backend if backend is not None else LocalBackend(workers)
        self.shard_count = shards if shards is not None else self.backend.slots
        if self.shard_count < 1:
            raise OrchestrationError(
                f"shard count must be >= 1, got {self.shard_count}"
            )
        self.retries = retries
        self.poll_interval = poll_interval
        self.stall_timeout = stall_timeout
        self.elastic = elastic
        self.elastic_after = elastic_after
        self.elastic_min_items = elastic_min_items
        self.max_splits = max_splits
        self._splits = 0
        self._next_key = self.shard_count
        self._split_seq = 0
        self._publication: dict | None = None
        self.progress = progress
        self._env = worker_env()

    # ------------------------------------------------------------------
    def run(self) -> OrchestrationOutcome:
        """Dispatch, live-merge, heal and finally merge the whole sweep."""
        start = time.perf_counter()
        jobs = self._prepare_jobs()
        self._write_manifest(jobs, state="running")

        merger = LiveMerger(self.plan.total_items, self.plan.fingerprint)
        for job in jobs:
            merger.attach(job.merge_key, job.stream)

        pending = [i for i, job in enumerate(jobs) if job.state == "pending"]
        running: set[int] = set()
        try:
            while pending or running:
                while pending and len(running) < self.backend.slots:
                    index = pending.pop(0)
                    job = jobs[index]
                    try:
                        self._launch(job, merger)
                    except DispatchError as exc:
                        # The command could not be started (Popen
                        # raised OSError: out of processes or file
                        # descriptors, say).  That is a failed attempt,
                        # not a fatal orchestration error: the shard is
                        # retried after the next poll cycle, within its
                        # retry budget.
                        job.attempts += 1
                        job.state = "failed"
                        if job.attempts > self.retries:
                            raise OrchestrationError(
                                f"shard {job.label} could not be "
                                f"launched after {job.attempts} attempts "
                                f"({exc})"
                            ) from exc
                        pending.append(index)
                        break  # let the poll/sleep cycle pass first
                    running.add(index)

                view = merger.poll()
                now = time.monotonic()
                for index in sorted(running):
                    job = jobs[index]
                    code = self.backend.poll(job.handle)
                    if code is None:
                        self._check_stall(job, view, now)
                        if job.state == "failed":
                            running.discard(index)
                            pending.insert(0, index)
                        continue
                    running.discard(index)
                    if code == 0 and self._artifact_ok(job):
                        job.state = "done"
                        continue
                    job.state = "failed"
                    if job.attempts > self.retries:
                        raise OrchestrationError(
                            f"shard {job.label} failed "
                            f"{job.attempts} times (last exit code {code}); "
                            f"see {job.log}"
                        )
                    pending.insert(0, index)

                idle = self.backend.slots - len(running)
                if self.elastic and not pending and running and idle >= 1:
                    split_index = self._pick_straggler(jobs, running, view, now)
                    if split_index is not None:
                        running.discard(split_index)
                        new_indexes = self._split_job(
                            jobs, split_index, merger, parts=idle + 1
                        )
                        pending.extend(new_indexes)
                        if new_indexes:
                            self._write_manifest(jobs, state="running")

                if self.progress is not None:
                    self.progress(view)
                if pending or running:
                    time.sleep(self.poll_interval)
        except BaseException:
            for index in running:
                self.backend.cancel(jobs[index].handle)
            self._write_manifest(jobs, state="failed")
            raise

        final_view = merger.poll()
        result = self._merge(jobs)
        if self.plan.publish:
            self._publication = self._publish(jobs)
        self._write_manifest(jobs, state="complete")
        attempts = {
            job.merge_key: job.attempts
            for job in jobs
            if job.state != "split"
        }
        return OrchestrationOutcome(
            result=result,
            view=final_view,
            attempts=attempts,
            retries=sum(max(0, a - 1) for a in attempts.values()),
            elapsed_seconds=time.perf_counter() - start,
            splits=self._splits,
            publication=self._publication,
        )

    # ------------------------------------------------------------------
    def _prepare_jobs(self) -> list[_ShardJob]:
        """Lay out the output directory; reuse finished shard artifacts."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = load_manifest(self.out_dir)
        if manifest is not None and manifest["fingerprint"] != self.plan.fingerprint:
            raise OrchestrationError(
                f"{self.out_dir} already holds an orchestration of a "
                "different sweep (fingerprint mismatch); use a fresh "
                "directory"
            )
        if (
            manifest is not None
            and int(manifest["shard_count"]) != self.shard_count
        ):
            raise OrchestrationError(
                f"{self.out_dir} was partitioned into "
                f"{manifest['shard_count']} shards; rerun with "
                f"--shards {manifest['shard_count']} or use a fresh directory"
            )
        if manifest is not None and manifest.get("placement") == "cache-aware":
            # Written before cache-aware placement was removed: its
            # shards cover fingerprint clusters, not strided slices.
            raise OrchestrationError(
                f"{self.out_dir} was partitioned with the removed "
                "'cache-aware' placement; use a fresh directory"
            )
        # Atomic-write temps orphaned by killed shard processes would
        # otherwise pile up across resumes.
        clean_stale_tmps(self.out_dir)
        # Elastic sub-shards of later splits must never reuse a file
        # stem a previous (interrupted, now partially reused) run
        # already claimed.
        for existing in sorted(self.out_dir.glob("shard-*.sub*")):
            match = re.search(r"\.sub(\d+)", existing.name)
            if match is not None:
                self._split_seq = max(self._split_seq, int(match.group(1)))

        jobs: list[_ShardJob] = []
        for index in range(self.shard_count):
            shard = ShardSpec(index, self.shard_count)
            stem = f"shard-{index + 1}of{self.shard_count}"
            # ".artifact.json" keeps `shard-*.artifact.json` globs (the
            # sweep-merge hint printed by sweep-status) from also
            # matching the sibling checkpoint files.
            job = _ShardJob(
                shard=shard,
                artifact=self.out_dir / f"{stem}.artifact.json",
                stream=self.out_dir / f"{stem}.jsonl",
                checkpoint=self.out_dir / f"{stem}.checkpoint.json",
                log=self.out_dir / f"{stem}.log",
                merge_key=index,
                label=shard.label,
            )
            if self._artifact_ok(job):
                jobs.append(job)
                job.state = "done"
                continue
            # Resumable elastic orchestrations: an interrupted run may
            # have left *finished sub-shard artifacts* (disjoint item
            # subsets of this shard's slice) behind.  Reuse them as
            # done jobs and dispatch only the uncovered remainder,
            # instead of recomputing the whole slice.
            partials = self._reusable_partials(shard, stem)
            if not partials:
                # Nothing reusable: stale partial files (invalid
                # artifacts, streams, seed checkpoints) from the dead
                # run would otherwise shadow this shard's fresh attempt.
                for stale in sorted(self.out_dir.glob(f"{stem}.sub*")):
                    stale.unlink(missing_ok=True)
                for stale in sorted(self.out_dir.glob(f"{stem}.resume*")):
                    stale.unlink(missing_ok=True)
                jobs.append(job)
                continue
            # Invalid partials (corrupt files, artifacts of another
            # sweep) must not survive next to the reused ones: the
            # sweep-status recovery hint globs
            # `shard-*.artifact.json`, and a stale foreign artifact
            # would break that merge.
            reused_artifacts = {path for path, _ in partials}
            for stale in sorted(self.out_dir.glob(f"{stem}.*.artifact.json")):
                if stale not in reused_artifacts:
                    stale.unlink(missing_ok=True)
                    stale.with_name(
                        stale.name[: -len(".artifact.json")] + ".jsonl"
                    ).unlink(missing_ok=True)
            covered: set[int] = set()
            for path, item_set in partials:
                sub_stem = path.name[: -len(".artifact.json")]
                done = _ShardJob(
                    shard=shard,
                    artifact=path,
                    stream=self.out_dir / f"{sub_stem}.jsonl",
                    checkpoint=None,
                    log=self.out_dir / f"{sub_stem}.log",
                    merge_key=self._next_key,
                    label=f"{shard.label}+{sub_stem.split('.', 1)[1]}",
                    items=sorted(item_set),
                )
                self._next_key += 1
                done.state = "done"
                covered |= item_set
                jobs.append(done)
            remaining = [
                i for i in shard.items(self.plan.total_items)
                if i not in covered
            ]
            if remaining:
                # A fresh ".resumeN" stem per remainder generation: a
                # *finished* resume artifact is reused above as a
                # partial and must not be overwritten by the next
                # remainder; an *unfinished* one keeps its stem (and
                # thus its checkpoint) across interruptions.
                generation = 1
                while (
                    self.out_dir / f"{stem}.resume{generation}.artifact.json"
                ).exists():
                    generation += 1
                resume_stem = f"{stem}.resume{generation}"
                checkpoint = self.out_dir / f"{resume_stem}.checkpoint.json"
                # The checkpoint survives interruptions, but a remainder
                # shrunk by newly-reused sub-artifacts must not resume
                # from coverage it no longer owns (the engine rejects
                # covered ⊄ planned).
                if checkpoint.exists() and not (
                    read_covered_items(checkpoint) <= set(remaining)
                ):
                    checkpoint.unlink(missing_ok=True)
                jobs.append(
                    _ShardJob(
                        shard=shard,
                        artifact=self.out_dir / f"{resume_stem}.artifact.json",
                        stream=self.out_dir / f"{resume_stem}.jsonl",
                        checkpoint=checkpoint,
                        log=self.out_dir / f"{resume_stem}.log",
                        merge_key=self._next_key,
                        label=f"{shard.label}+resume{generation}",
                        items=remaining,
                    )
                )
                self._next_key += 1
        return jobs

    def _reusable_partials(
        self, shard: ShardSpec, stem: str
    ) -> list[tuple[Path, set[int]]]:
        """Finished partial artifacts of ``shard`` worth keeping.

        Sub-shard artifacts from an interrupted elastic run (and the
        ``.resume`` remainders of an earlier resume) qualify when they
        really belong to this sweep and shard, sit inside the shard's
        slice, and are pairwise disjoint; anything else is skipped and
        later recomputed.  The whole-shard artifact itself
        (``<stem>.artifact.json``) is handled by the caller.
        """
        partials: list[tuple[Path, set[int]]] = []
        covered: set[int] = set()
        slice_items = set(shard.items(self.plan.total_items))
        for path in sorted(self.out_dir.glob(f"{stem}.*.artifact.json")):
            try:
                artifact = load_shard(path)
            except ShardError:
                continue
            if (
                artifact.fingerprint != self.plan.fingerprint
                or artifact.kind != self.plan.kind
                or artifact.shard != shard
                or artifact.total_items != self.plan.total_items
            ):
                continue
            items = artifact.covered_items()
            if not items or not items <= slice_items or items & covered:
                continue
            covered |= items
            partials.append((path, items))
        return partials

    def _artifact_ok(self, job: _ShardJob) -> bool:
        """A completed, readable artifact of *this* sweep and job?"""
        if not job.artifact.exists():
            return False
        try:
            artifact = load_shard(job.artifact)
        except ShardError:
            return False
        if (
            artifact.fingerprint != self.plan.fingerprint
            or artifact.shard != job.shard
            or artifact.kind != self.plan.kind
        ):
            return False
        if job.items is not None:
            # A sub-shard artifact must cover exactly its item subset;
            # identity alone cannot tell two sub-shards of one shard
            # apart.
            return artifact.covered_items() == set(job.items)
        return True

    def _launch(self, job: _ShardJob, merger: LiveMerger) -> None:
        if job.attempts > 0 or job.stream.exists():
            # Any prior stream bytes — a relaunch's dead attempt, or a
            # leftover from an interrupted orchestration being resumed —
            # are stale the moment the new process replaces the file.
            # Drop them and re-tail from scratch *before* the worker
            # starts, so the live view never mixes two attempts and the
            # tail never reads from a mid-line offset of the old file.
            job.stream.unlink(missing_ok=True)
            merger.reset(job.merge_key, count_restart=job.attempts > 0)
        argv = list(self.plan.argv)
        argv += ["--shard", job.shard.label]
        if job.items is not None:
            argv += ["--shard-items", ",".join(str(i) for i in job.items)]
        argv += ["--shard-out", str(job.artifact)]
        argv += ["--stream", str(job.stream)]
        if job.checkpoint is not None:
            argv += ["--checkpoint", str(job.checkpoint)]
        job.handle = self.backend.launch(argv, job.log, env=self._env)
        job.attempts += 1
        job.state = "running"
        job.last_done_items = 0
        job.last_progress_at = time.monotonic()
        job.launched_at = time.monotonic()

    def _check_stall(self, job: _ShardJob, view: ClusterView, now: float) -> None:
        if self.stall_timeout is None:
            return
        done = view.shard(job.merge_key).done_items
        if done > job.last_done_items:
            job.last_done_items = done
            job.last_progress_at = now
            return
        if now - job.last_progress_at >= self.stall_timeout:
            self.backend.cancel(job.handle)
            job.state = "failed"
            if job.attempts > self.retries:
                raise OrchestrationError(
                    f"shard {job.label} stalled "
                    f"(no stream progress for {self.stall_timeout:.0f}s) "
                    f"after {job.attempts} attempts; see {job.log}"
                )

    # ------------------------------------------------------------------
    # Elastic re-partitioning
    def _pick_straggler(
        self,
        jobs: Sequence[_ShardJob],
        running: set[int],
        view: ClusterView,
        now: float,
    ) -> int | None:
        """The running job most worth splitting onto idle slots, if any."""
        if self._splits >= self.max_splits:
            return None
        best_index: int | None = None
        best_remaining = 0
        for index in running:
            job = jobs[index]
            if now - job.launched_at < self.elastic_after:
                continue
            planned = len(job.planned_items(self.plan.total_items))
            remaining = planned - view.shard(job.merge_key).done_items
            if remaining < self.elastic_min_items:
                continue
            if remaining > best_remaining:
                best_index, best_remaining = index, remaining
        return best_index

    def _split_job(
        self,
        jobs: list[_ShardJob],
        index: int,
        merger: LiveMerger,
        parts: int,
    ) -> list[int]:
        """Kill the straggler at ``index``; re-partition its remainder.

        Returns the indexes of the freshly-created sub-jobs (pending),
        or ``[]`` when the straggler turned out to have finished before
        the kill landed (its artifact is then complete and reused).
        """
        job = jobs[index]
        self.backend.cancel(job.handle)
        if self._artifact_ok(job):
            # Lost the race in the best way: it finished while we were
            # deciding to split it.
            job.state = "done"
            return []
        self._splits += 1
        self._split_seq += 1
        split_id = self._split_seq

        base = f"shard-{job.shard.index + 1}of{job.shard.count}.sub{split_id}"
        planned = job.planned_items(self.plan.total_items)
        # Snapshot the straggler's checkpoint under a fresh name and
        # read the covered set from the *snapshot*: if the kill has not
        # landed yet, the dying process may still write the original
        # path, and items it finishes after this point belong to the
        # other sub-shards — folding them into sub-shard 1's checkpoint
        # would poison its planned-items validation.
        checkpoint0 = self.out_dir / f"{base}-seed.checkpoint.json"
        try:
            shutil.copyfile(job.checkpoint, checkpoint0)
        except OSError:
            # No checkpoint yet: sub-shard 1 computes its items.
            checkpoint0.unlink(missing_ok=True)
        covered = read_covered_items(checkpoint0) & set(planned)
        remaining = [i for i in planned if i not in covered]
        # Strided groups, like the top-level partition, so expensive
        # high-utilisation items spread across the sub-shards.
        parts = max(1, min(parts, len(remaining) or 1))
        groups = [remaining[offset::parts] for offset in range(parts)]

        job.state = "split"
        # The straggler's stream is garbage now; drop it from the live
        # view (its finished work re-enters through sub-shard 1's
        # checkpoint replay).
        merger.reset(job.merge_key, count_restart=True)
        job.stream.unlink(missing_ok=True)

        new_indexes: list[int] = []
        for part, group in enumerate(groups):
            stem = f"{base}-{part + 1}of{len(groups)}"
            if part == 0:
                # Inherits the straggler's progress via the snapshot:
                # replays the covered items, computes only its group.
                items = sorted(covered | set(group))
                checkpoint = checkpoint0
            else:
                items = sorted(group)
                checkpoint = self.out_dir / f"{stem}.checkpoint.json"
            sub = _ShardJob(
                shard=job.shard,
                artifact=self.out_dir / f"{stem}.artifact.json",
                stream=self.out_dir / f"{stem}.jsonl",
                checkpoint=checkpoint,
                log=self.out_dir / f"{stem}.log",
                merge_key=self._next_key,
                label=f"{job.shard.label}+s{split_id}.{part + 1}",
                items=items,
            )
            self._next_key += 1
            merger.attach(sub.merge_key, sub.stream)
            jobs.append(sub)
            new_indexes.append(len(jobs) - 1)
        return new_indexes

    def _merge(self, jobs: Sequence[_ShardJob]):
        paths = [job.artifact for job in jobs if job.state != "split"]
        from repro.engine.registry import merge_artifacts

        return merge_artifacts(paths)

    def _publish(self, jobs: Sequence[_ShardJob]) -> dict:
        """Publish the finished shard set into the result store.

        Runs only after :meth:`_merge` succeeded, so the artifact set
        is known-complete; re-running a finished orchestration
        re-publishes as a deduplicated no-op.
        """
        import json

        from repro.engine.store import publish_artifacts

        job = (
            json.loads(self.plan.job_json)
            if self.plan.job_json is not None
            else None
        )
        report = publish_artifacts(
            self.plan.store_dir,
            [job_.artifact for job_ in jobs if job_.state != "split"],
            job=job,
            source="orchestrator",
        )
        return {
            "store": str(report.path),
            "run_id": report.run_id,
            "row_count": report.row_count,
            "rows_added": report.rows_added,
            "deduplicated": report.deduplicated,
        }

    def _write_manifest(self, jobs: Sequence[_ShardJob], state: str) -> None:
        payload = {
            "version": FORMAT_VERSION,
            "experiment": self.plan.experiment,
            "kind": self.plan.kind,
            "fingerprint": self.plan.fingerprint,
            "total_items": self.plan.total_items,
            "shard_count": self.shard_count,
            "argv": list(self.plan.argv),
            "state": state,
            "shards": [
                {
                    "index": job.merge_key,
                    "label": job.label,
                    "state": job.state,
                    "items": len(job.items) if job.items is not None else None,
                    "artifact": job.artifact.name,
                    "stream": job.stream.name,
                    "checkpoint": job.checkpoint.name if job.checkpoint else None,
                    "log": job.log.name,
                    "attempts": job.attempts,
                }
                for job in jobs
            ],
        }
        if self._publication is not None:
            # Additive key: older readers tolerate and ignore it.
            payload["publication"] = self._publication
        write_json_atomic(self.out_dir / MANIFEST_NAME, payload)


# ----------------------------------------------------------------------
# Plan builder.

def plan_from_jobspec(job) -> OrchestrationPlan:
    """The :class:`OrchestrationPlan` dispatching one declarative job.

    Every shard invocation becomes ``python -m repro sweep-run
    --job-json '<spec>'`` — the shard's command line carries the
    JobSpec JSON verbatim, and the orchestrator appends only per-shard
    placement flags (``--shard``, ``--shard-out``, ``--stream``,
    ``--checkpoint``, ``--shard-items``), which ``sweep-run`` layers
    over the embedded spec.  The dispatched spec is the job's
    :meth:`~repro.engine.jobspec.JobSpec.for_worker` form: its own
    placement fields stripped, its jobs/chunk-size and verdict-cache
    policy kept.
    """
    worker = job.for_worker()
    if worker.execution.cache != "off":
        # Resolve the cache directory now, so every shard (and a later
        # resume from another working directory) shares one cache.
        from repro.engine.vcache import DEFAULT_CACHE_DIR

        cache_dir = worker.execution.cache_dir or DEFAULT_CACHE_DIR
        worker = replace(
            worker,
            execution=replace(
                worker.execution, cache_dir=str(Path(cache_dir).resolve())
            ),
        )
    argv = (
        sys.executable, "-m", "repro", "sweep-run",
        "--job-json", worker.to_json(indent=None),
    )
    store_dir = job.execution.store_dir
    if job.execution.publish and store_dir is not None:
        # Publication happens orchestrator-side, but a resume may run
        # from another cwd; pin the store like the cache directory.
        store_dir = str(Path(store_dir).resolve())
    return OrchestrationPlan(
        experiment=job.kind,
        kind=job.workload.merge_kind,
        fingerprint=job.fingerprint(),
        total_items=job.total_items,
        argv=argv,
        publish=job.execution.publish,
        store_dir=store_dir,
        job_json=job.to_json(indent=None),
    )


# ----------------------------------------------------------------------
# Status inspection (the sweep-status command).

@dataclass(frozen=True, slots=True)
class OrchestrationStatus:
    """Snapshot of a running or finished orchestration directory."""

    manifest: dict
    view: ClusterView
    #: shard index → True when its artifact is complete and readable.
    artifacts_done: dict[int, bool]

    @property
    def state(self) -> str:
        return str(self.manifest.get("state", "unknown"))

    @property
    def complete(self) -> bool:
        return all(self.artifacts_done.values())


def load_manifest(out_dir: str | Path) -> dict | None:
    """Read ``orchestration.json``; ``None`` when absent.

    Raises
    ------
    OrchestrationError
        On unreadable JSON or a format-version mismatch.
    """
    import json

    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if payload.get("version") != FORMAT_VERSION:
            raise OrchestrationError(
                f"manifest {path} has format version "
                f"{payload.get('version')!r}, expected {FORMAT_VERSION}"
            )
        if not isinstance(payload.get("shards"), list):
            raise OrchestrationError(f"manifest {path} has no shard table")
        return payload
    except OrchestrationError:
        raise
    except (json.JSONDecodeError, TypeError, ValueError, AttributeError) as exc:
        raise OrchestrationError(
            f"manifest {path} is unreadable ({exc})"
        ) from exc


def read_status(out_dir: str | Path) -> OrchestrationStatus:
    """Inspect an orchestration directory from its files alone.

    Progress comes from tailing the per-shard streams (exactly what the
    live merger does inside a running orchestrator), completion from
    loading the shard artifacts — so the command works on a live run,
    a finished one, and a crashed one alike.
    """
    out_dir = Path(out_dir)
    manifest = load_manifest(out_dir)
    if manifest is None:
        raise OrchestrationError(
            f"{out_dir} has no {MANIFEST_NAME}; not an orchestration directory"
        )
    merger = LiveMerger(
        int(manifest["total_items"]), str(manifest["fingerprint"])
    )
    artifacts_done: dict[int, bool] = {}
    for entry in manifest["shards"]:
        if entry.get("state") == "split":
            # Re-partitioned straggler: retired, its slice is owned by
            # the sub-shard entries now; neither its (unlinked) stream
            # nor its never-written artifact counts toward completion.
            continue
        index = int(entry["index"])
        merger.attach(index, out_dir / str(entry["stream"]))
        artifact = out_dir / str(entry["artifact"])
        done = False
        if artifact.exists():
            try:
                loaded = load_shard(artifact)
                done = loaded.fingerprint == manifest["fingerprint"]
            except ShardError:
                done = False
        artifacts_done[index] = done
    return OrchestrationStatus(
        manifest=manifest,
        view=merger.poll(),
        artifacts_done=artifacts_done,
    )

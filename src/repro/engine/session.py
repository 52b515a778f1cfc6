"""The Session façade: run, submit and resume declarative jobs.

A :class:`Session` is the one programmatic entry point for executing
:class:`~repro.engine.jobspec.JobSpec` values.  It owns nothing the
spec does not say: the workload picks the experiment, the execution
policy picks executors/paths, and the session merely routes —

* :meth:`Session.run` executes a job **inline** (in this process):
  every kind's sweep (from the workload-kind registry) runs on
  :class:`~repro.engine.sweep.SweepEngine`, built from the job's
  execution policy — serially for ``jobs == 1``, on a process pool
  otherwise;
* :meth:`Session.submit` launches a job **asynchronously** as a local
  ``python -m repro sweep-run --job-json '<spec>'`` subprocess, so the
  command line carries the job description verbatim.  The
  returned :class:`JobHandle` supports :meth:`Session.status`,
  :meth:`Session.wait` and :meth:`Session.result` (which loads the
  job's shard artifact and rebuilds the experiment result through the
  fingerprint-validated merge machinery);
* :meth:`Session.resume` re-runs a job *file*; a job whose policy
  names a checkpoint resumes from it for free.

The orchestrator remains the tier for whole sharded sweeps (healing,
elastic re-partitioning); a session is the thin uniform substrate the
CLI, tests and scripts share.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import DispatchError, JobSpecError
from repro.engine.backends import LocalBackend, worker_env
from repro.engine.jobspec import JobSpec, save_job
from repro.engine.executors import make_executor
from repro.engine.shard import load_shard
from repro.engine.sweep import SweepEngine


@dataclass(frozen=True, slots=True)
class JobStatus:
    """One poll of a submitted job."""

    state: str  # "running" | "done" | "failed"
    exit_code: int | None = None

    @property
    def finished(self) -> bool:
        return self.state != "running"


@dataclass(slots=True)
class JobHandle:
    """Session-side state of one submitted job."""

    job: JobSpec
    job_file: Path
    artifact: Path
    log: Path
    backend_handle: object
    exit_code: int | None = None


class Session:
    """Execute :class:`~repro.engine.jobspec.JobSpec` values uniformly.

    :meth:`submit` launches on the session's own single-slot
    :class:`~repro.engine.backends.LocalBackend`, created on first use
    and released by :meth:`close`; inline :meth:`run` never touches it.

    Parameters
    ----------
    out_dir:
        Directory owning submit-time files (job copy, artifact, log)
        for jobs whose policy does not name a ``shard_out``.  Only
        required when such a job is submitted.
    """

    def __init__(self, out_dir: str | Path | None = None) -> None:
        self._backend: LocalBackend | None = None
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._submits = 0

    # ------------------------------------------------------------------
    # Inline execution
    def run(self, job: JobSpec):
        """Execute ``job`` in this process, blocking until done.

        Returns the workload's natural result: a
        :class:`~repro.engine.results.SweepResult` for figure2/group2,
        the :class:`~repro.experiments.splitsweep.SplitSweepPoint` list
        for splitsweep, and so on per registered kind — the workload's
        sweep comes from the workload-kind registry, so any registered
        kind runs here without Session changes.

        A policy with ``publish`` on also publishes the completed run
        into the durable result store (:mod:`repro.engine.store`):
        the run's shard artifact — a temporary one when the policy
        names no ``shard_out`` — is canonicalised and appended under
        the job's workload fingerprint.
        """
        policy = job.execution
        if not policy.publish:
            return _run_inline(job)

        import tempfile

        from repro.engine.store import publish_artifacts

        tmp_dir: tempfile.TemporaryDirectory | None = None
        shard_out = policy.shard_out
        effective = job
        if shard_out is None:
            tmp_dir = tempfile.TemporaryDirectory(prefix="repro-publish-")
            shard_out = str(Path(tmp_dir.name) / "artifact.json")
            effective = job.with_overrides(
                {"execution.shard_out": shard_out}
            )
        try:
            result = _run_inline(effective)
            publish_artifacts(
                policy.store_dir, [shard_out], job=job, source="session",
            )
        finally:
            if tmp_dir is not None:
                tmp_dir.cleanup()
        return result

    def resume(self, path: str | Path):
        """Re-run the job stored at ``path`` (checkpoints resume free)."""
        from repro.engine.jobspec import load_job

        return self.run(load_job(path))

    # ------------------------------------------------------------------
    # Asynchronous submission
    def submit(self, job: JobSpec, name: str | None = None) -> JobHandle:
        """Launch ``job`` as a subprocess; returns immediately.

        The job must produce an artifact for :meth:`result` to load:
        a policy without ``shard_out`` gets one assigned under the
        session's ``out_dir`` (which is then required).  The effective
        spec is also written next to the artifact as ``<name>.job.json``
        — the durable record of exactly what was dispatched.
        """
        self._submits += 1
        name = name or f"job-{self._submits}"
        if job.execution.shard_out is None:
            if self.out_dir is None:
                raise JobSpecError(
                    "submitted job has no execution.shard_out and the "
                    "session has no out_dir to assign one under"
                )
            self.out_dir.mkdir(parents=True, exist_ok=True)
            job = job.with_overrides(
                {"execution.shard_out":
                 str(self.out_dir / f"{name}.artifact.json")}
            )
        artifact = Path(job.execution.shard_out).resolve()
        job = job.with_overrides({"execution.shard_out": str(artifact)})
        job_file = artifact.with_name(f"{name}.job.json")
        save_job(job_file, job)
        log = artifact.with_name(f"{name}.log")
        argv = [
            sys.executable, "-m", "repro", "sweep-run",
            "--job-json", job.to_json(indent=None),
        ]
        handle = self._ensure_backend().launch(argv, log, env=worker_env())
        return JobHandle(
            job=job, job_file=job_file, artifact=artifact, log=log,
            backend_handle=handle,
        )

    def status(self, handle: JobHandle) -> JobStatus:
        """Poll a submitted job: running, done (artifact ok) or failed."""
        if handle.exit_code is None:
            handle.exit_code = self._ensure_backend().poll(
                handle.backend_handle
            )
        if handle.exit_code is None:
            return JobStatus("running")
        if handle.exit_code == 0 and handle.artifact.exists():
            return JobStatus("done", handle.exit_code)
        return JobStatus("failed", handle.exit_code)

    def wait(self, handle: JobHandle, timeout: float = 300.0) -> JobStatus:
        """Block until the job finishes (or ``timeout`` elapses)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(handle)
            if status.finished:
                return status
            if time.monotonic() >= deadline:
                raise DispatchError(
                    f"job {handle.job_file.name} still running after "
                    f"{timeout:.0f}s; see {handle.log}"
                )
            time.sleep(0.05)

    def result(self, handle: JobHandle):
        """The finished job's result, rebuilt from its shard artifact.

        Waits for completion first; a failed job raises
        :class:`~repro.exceptions.DispatchError` with the log tail.

        A whole-sweep job yields its kind's merged result (a
        :class:`~repro.engine.results.SweepResult`, a split-sweep
        point list, ...).  A job restricted to a shard or item subset
        can never yield one on its own — its
        :class:`~repro.engine.shard.ShardArtifact` is returned
        instead, to be combined with the sweep's other artifacts via
        :func:`~repro.engine.registry.merge_artifacts`.
        """
        status = self.wait(handle)
        if status.state != "done":
            tail = ""
            if handle.log.exists():
                tail = handle.log.read_text()[-2000:]
            raise DispatchError(
                f"job {handle.job_file.name} failed "
                f"(exit code {status.exit_code}):\n{tail}"
            )
        artifact = load_shard(handle.artifact)
        if artifact.covered_items() != set(range(artifact.total_items)):
            return artifact
        from repro.engine.registry import merge_artifacts

        result = merge_artifacts([artifact])
        if handle.job.execution.publish:
            # The worker's own inline run already published; this is a
            # deduplicated no-op then, and the safety net when the
            # worker-side store was unreachable.
            from repro.engine.store import publish_artifacts

            publish_artifacts(
                handle.job.execution.store_dir, [artifact],
                job=handle.job, source="session",
            )
        return result

    # ------------------------------------------------------------------
    def _ensure_backend(self) -> LocalBackend:
        if self._backend is None:
            self._backend = LocalBackend(slots=1)
        return self._backend

    def close(self) -> None:
        """Kill any submitted job still running and release the backend."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _run_inline(job: JobSpec):
    """Run ``job``'s sweep on an engine built from its execution policy."""
    policy = job.execution
    with make_executor(policy.jobs) as executor:
        engine = SweepEngine(
            executor=executor,
            chunk_size=policy.chunk_size,
            checkpoint_path=policy.checkpoint,
            cache=policy.cache,
            cache_dir=policy.cache_dir,
        )
        return engine.run(
            job.workload.sweep_spec(),
            shard=policy.shard,
            shard_out=policy.shard_out,
            stream=policy.stream,
            items=policy.items,
        )


def run_job(job: JobSpec):
    """One-call convenience: execute ``job`` inline in this process."""
    with Session() as session:
        return session.run(job)


__all__ = [
    "JobHandle",
    "JobStatus",
    "Session",
    "run_job",
]

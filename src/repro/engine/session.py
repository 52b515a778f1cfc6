"""The Session façade: run and resume declarative jobs.

A :class:`Session` is the one programmatic entry point for executing
:class:`~repro.engine.jobspec.JobSpec` values.  It owns nothing the
spec does not say: the workload picks the experiment, the execution
policy picks executors/paths, and the session merely routes —

* :meth:`Session.run` executes a job in this process: every kind's
  sweep (from the workload-kind registry) runs on
  :class:`~repro.engine.sweep.SweepEngine`, built from the job's
  execution policy — serially for ``jobs == 1``, on a process pool
  otherwise;
* :meth:`Session.resume` re-runs a job *file*; a job whose policy
  names a checkpoint resumes from it for free.

A sweep spread over several hosts runs one ``--shard I/N`` job per
host and recombines the artifacts with ``sweep-merge``.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.jobspec import JobSpec
from repro.engine.executors import make_executor
from repro.engine.sweep import SweepEngine


class Session:
    """Execute :class:`~repro.engine.jobspec.JobSpec` values uniformly."""

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
        )


def run_job(job: JobSpec):
    """One-call convenience: execute ``job`` inline in this process."""
    return Session().run(job)


__all__ = [
    "Session",
    "run_job",
]

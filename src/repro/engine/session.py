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
        """
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

    def resume(self, path: str | Path):
        """Re-run the job stored at ``path`` (checkpoints resume free)."""
        from repro.engine.jobspec import load_job

        return self.run(load_job(path))


def run_job(job: JobSpec):
    """One-call convenience: execute ``job`` inline in this process."""
    return Session().run(job)


__all__ = [
    "Session",
    "run_job",
]

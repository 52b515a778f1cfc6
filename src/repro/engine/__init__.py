"""The execution stack: one declarative job, one execution shape.

Every run enters the same way: a :class:`JobSpec` (workload + execution
policy) goes to :class:`Session` (:func:`run_job`, or ``python -m repro
sweep-run`` and its per-kind aliases), which takes the workload's sweep
from the workload-kind registry and runs it on :class:`SweepEngine`:
per-item rows over chunked work, reduced in item order — the
``(utilisation, task-set)`` grid of figure2/group2 and the corpus
sweeps of splitsweep, sensitivity, simulate and timing alike.  Every
kind is bit-identical across executors, chunkings, shards, resumes and
orchestrations.

* :mod:`repro.engine.jobspec` — the declarative, serializable
  :class:`JobSpec` every tier speaks;
* :mod:`repro.engine.registry` — the workload-kind registry mapping
  each kind to its validator, sweep, row codec, reduction and render
  hooks (the one place a new kind plugs in);
* :mod:`repro.engine.session` — the :class:`Session` façade running,
  submitting and resuming jobs;
* :mod:`repro.engine.sweep` — :class:`SweepSpec` (a grid sweep),
  :class:`CorpusSweep` (a sweep over a corpus built up front) and
  :class:`SweepEngine` (how every sweep runs);
* :mod:`repro.engine.executors` — where the work executes (serial or
  a process pool);
* :mod:`repro.engine.checkpoint` — the per-item record, and how
  interrupted sweeps resume;
* :mod:`repro.engine.shard` — how one sweep splits across independent
  invocations and merges back bit-identically;
* :mod:`repro.engine.streaming` — incremental JSONL result streams;
* :mod:`repro.engine.results` — the grid sweep's result types
  (:class:`SweepPoint`, :class:`SweepResult`);
* :mod:`repro.engine.vcache` — the verdict cache, keyed on each grid
  item's generation coordinates;
* :mod:`repro.engine.orchestrator` — a whole sharded job as one
  command: dispatch, live merge (:mod:`repro.engine.livemerge`),
  retries, elastic re-partitioning;
* :mod:`repro.engine.backends` — where shard invocations run (local
  subprocesses, SSH/queue command templates, worker daemons);
* :mod:`repro.engine.daemon` — the persistent worker daemon: imports
  the stack once, forks warm shard children on work orders;
* :mod:`repro.engine.store` / :mod:`repro.engine.validation` — the
  durable sqlite result store and its completeness/drift checks.
"""

from repro.engine.backends import (
    BACKEND_KINDS,
    DAEMON_LOST_EXIT,
    DaemonBackend,
    DaemonHandle,
    DispatchBackend,
    LocalBackend,
    TemplateBackend,
    make_backend,
)
from repro.engine.checkpoint import (
    FORMAT_VERSION,
    SweepCheckpoint,
    clean_stale_tmps,
    load_checkpoint,
    read_covered_items,
    save_checkpoint,
)
from repro.engine.daemon import (
    DaemonClient,
    WorkerDaemon,
    run_daemon,
    wait_for_daemon,
)
from repro.engine.executors import (
    Executor,
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.jobspec import (
    JOBSPEC_VERSION,
    WORKLOAD_KINDS,
    ExecutionPolicy,
    JobSpec,
    Workload,
    load_job,
    save_job,
)
from repro.engine.livemerge import ClusterView, LiveMerger, ShardProgress
from repro.engine.registry import (
    KindSpec,
    kind_spec,
    known_artifact_kinds,
    merge_artifacts,
    register_kind,
    workload_kinds,
)
from repro.engine.orchestrator import (
    OrchestrationOutcome,
    OrchestrationPlan,
    OrchestrationStatus,
    Orchestrator,
    plan_from_jobspec,
    read_status,
)
from repro.engine.session import JobHandle, JobStatus, Session, run_job
from repro.engine.results import SweepPoint, SweepResult
from repro.engine.shard import (
    ShardArtifact,
    ShardSpec,
    load_shard,
    parse_items,
    parse_shard,
    save_shard,
)
from repro.engine.streaming import StreamDump, StreamTail, StreamWriter, read_stream
from repro.engine.sweep import (
    DEFAULT_METHODS,
    CorpusSweep,
    SweepEngine,
    SweepSpec,
)

__all__ = [
    "DEFAULT_METHODS",
    "FORMAT_VERSION",
    "SweepSpec",
    "CorpusSweep",
    "SweepEngine",
    "Executor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "make_executor",
    "SweepPoint",
    "SweepResult",
    "SweepCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "ShardSpec",
    "ShardArtifact",
    "parse_shard",
    "parse_items",
    "save_shard",
    "load_shard",
    "read_covered_items",
    "StreamWriter",
    "StreamDump",
    "StreamTail",
    "read_stream",
    "clean_stale_tmps",
    "BACKEND_KINDS",
    "DAEMON_LOST_EXIT",
    "DispatchBackend",
    "LocalBackend",
    "TemplateBackend",
    "DaemonBackend",
    "DaemonHandle",
    "DaemonClient",
    "WorkerDaemon",
    "run_daemon",
    "wait_for_daemon",
    "make_backend",
    "ClusterView",
    "LiveMerger",
    "ShardProgress",
    "Orchestrator",
    "OrchestrationPlan",
    "OrchestrationOutcome",
    "OrchestrationStatus",
    "plan_from_jobspec",
    "read_status",
    "JOBSPEC_VERSION",
    "WORKLOAD_KINDS",
    "KindSpec",
    "kind_spec",
    "known_artifact_kinds",
    "merge_artifacts",
    "register_kind",
    "workload_kinds",
    "JobSpec",
    "Workload",
    "ExecutionPolicy",
    "load_job",
    "save_job",
    "JobHandle",
    "JobStatus",
    "Session",
    "run_job",
]

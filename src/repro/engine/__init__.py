"""The execution stack: one declarative job, one execution shape.

Every run enters the same way: a :class:`JobSpec` (workload + execution
policy) goes to :class:`Session` (:func:`run_job`, or ``python -m repro
sweep-run`` and its per-kind aliases), which takes the workload's sweep
from the workload-kind registry and runs it on :class:`SweepEngine`:
per-item rows over chunked work, reduced in item order — the
``(utilisation, task-set)`` grid of figure2/group2 and the corpus
sweeps of splitsweep, sensitivity, simulate and timing alike.  Every
kind is bit-identical across executors, chunkings, shards and resumes.

* :mod:`repro.engine.jobspec` — the declarative, serializable
  :class:`JobSpec` every tier speaks;
* :mod:`repro.engine.registry` — the workload-kind registry mapping
  each kind to its validator, sweep, row codec, reduction and render
  hooks (the one place a new kind plugs in);
* :mod:`repro.engine.session` — the :class:`Session` façade running
  and resuming jobs;
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
  item's generation coordinates.

A finished run's record is its CSV and, when asked for, its shard
artifact: ``sweep-merge`` checks a shard set for gaps, overlaps and
mixed sweeps, and two runs compare with ``diff``.
"""

from repro.engine.checkpoint import (
    FORMAT_VERSION,
    SweepCheckpoint,
    clean_stale_tmps,
    load_checkpoint,
    save_checkpoint,
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
from repro.engine.registry import (
    KindSpec,
    kind_spec,
    known_artifact_kinds,
    merge_artifacts,
    register_kind,
    workload_kinds,
)
from repro.engine.session import Session, run_job
from repro.engine.results import SweepPoint, SweepResult
from repro.engine.shard import (
    ShardArtifact,
    ShardSpec,
    load_shard,
    parse_shard,
    save_shard,
)
from repro.engine.streaming import StreamDump, StreamWriter, read_stream
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
    "save_shard",
    "load_shard",
    "StreamWriter",
    "StreamDump",
    "read_stream",
    "clean_stale_tmps",
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
    "Session",
    "run_job",
]

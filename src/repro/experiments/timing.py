"""Analysis-runtime measurement (paper Section VI-B, last paragraph).

The paper reports the average wall-clock time of the LP-ILP
schedulability test "to provide a positive scheduling answer": 0.45 s
(m = 4), 4.75 s (m = 8) and 43 min (m = 16) on an i7-3740QM running
MATLAB + CPLEX. Our exact combinatorial solvers are dramatically
faster, so absolute numbers differ by orders of magnitude; the
reproduced claim is the *growth trend* with m (scenario count p(m) and
μ arrays grow), which this harness measures.

Task-sets are generated in the parent process (so streams match the
serial harness); each sample is timed *inside* its worker via a
:mod:`repro.engine.executors` executor.  Keep ``jobs=1`` for clean
wall-clock numbers — parallel workers contend for cores and inflate
per-sample times; ``jobs > 1`` is for quick trend checks only.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import AnalysisError
from repro.core.analyzer import AnalysisMethod, analyze_taskset
from repro.core.blocking import RhoSolver
from repro.core.workload import MuMethod
from repro.engine.executors import make_executor, map_ordered
from repro.engine.sweep import CorpusSweep
from repro.generator.profiles import GROUP1, TasksetProfile
from repro.generator.taskset_gen import generate_taskset
from repro.model.taskset import TaskSet

#: Shard-artifact kind tag of registry-backed timing sweeps.
KIND_TIMING = "timing"


@dataclass(frozen=True, slots=True)
class TimingRow:
    """Average analysis runtime for one core count."""

    m: int
    samples: int
    mean_seconds: float
    max_seconds: float
    positive_answers: int


def _time_sample(
    payload: tuple[TaskSet, int, AnalysisMethod, MuMethod, RhoSolver],
) -> tuple[float, bool]:
    """Time one analysis (runs in a worker process)."""
    taskset, m, method, mu_method, rho_solver = payload
    start = time.perf_counter()
    result = analyze_taskset(
        taskset, m, method, mu_method=mu_method, rho_solver=rho_solver
    )
    return time.perf_counter() - start, result.schedulable


def run_timing(
    core_counts: tuple[int, ...] = (4, 8, 16),
    samples: int = 20,
    seed: int = 2016,
    utilization_factor: float = 0.5,
    profile: TasksetProfile = GROUP1,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
    mu_method: MuMethod = "search",
    rho_solver: RhoSolver = "assignment",
    jobs: int = 1,
) -> list[TimingRow]:
    """Measure mean/max analysis runtime per core count.

    Task-sets are generated at ``utilization_factor * m`` (mid-range,
    where the paper's positive answers concentrate); only positively
    answered task-sets are counted into the mean, mirroring the paper's
    phrasing, but all runs are timed.

    Parameters
    ----------
    core_counts:
        Platforms to measure (paper: 4, 8, 16).
    samples:
        Random task-sets per platform.
    seed:
        Root seed.
    utilization_factor:
        Target utilisation as a fraction of ``m``.
    profile / method / mu_method / rho_solver:
        What exactly is being timed.
    jobs:
        Worker processes (timing is done inside each worker; prefer 1
        for clean numbers).
    """
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    rows: list[TimingRow] = []
    root = np.random.SeedSequence(seed)
    with make_executor(jobs) as executor:
        for child, m in zip(root.spawn(len(core_counts)), core_counts):
            rng = np.random.default_rng(child)
            payloads = [
                (
                    generate_taskset(rng, utilization_factor * m, profile),
                    m,
                    method,
                    mu_method,
                    rho_solver,
                )
                for _ in range(samples)
            ]
            timed = map_ordered(executor, _time_sample, payloads)
            durations = [duration for duration, _ in timed]
            positive = sum(schedulable for _, schedulable in timed)
            rows.append(
                TimingRow(
                    m=m,
                    samples=samples,
                    mean_seconds=sum(durations) / len(durations),
                    max_seconds=max(durations),
                    positive_answers=positive,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Registry-backed timing sweeps (JobSpec kind "timing").
#
# run_timing() above is the original sequential harness: each core
# count draws its corpus from one spawned RNG stream, so its item
# space cannot be sliced without replaying the whole stream.  The
# registry kind instead derives every sample's RNG independently from
# (seed, core_index, sample_index) — the same per-item derivation the
# grid sweeps use — which is what makes the item space shardable and
# daemon-dispatchable.  The two corpora therefore differ at equal
# seeds; the registry kind is the engine-facing surface, run_timing()
# stays for direct API use and the timing-vs-paper table.
#
# Wall-clock durations are measured inside workers and are inherently
# non-deterministic; the conformance suite compares only the
# deterministic projection (schedulable counts per core count).

def timing_fingerprint(
    core_counts: tuple[int, ...],
    samples: int,
    seed: int,
    utilization_factor: float,
    profile: TasksetProfile,
    method: AnalysisMethod = AnalysisMethod.LP_ILP,
) -> str:
    """Content fingerprint tying shards to one exact timing sweep."""
    key = (
        "repro.experiments.timing/v1",
        tuple(int(c) for c in core_counts),
        samples,
        seed,
        utilization_factor,
        repr(profile),
        method.value,
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _evaluate_timing_item(
    payload: tuple[int, int, int, int, float], cache=None,
) -> list[list]:
    """One work item: generate + time one sample (in a worker).

    The task-set is regenerated in the worker from the item's own
    ``SeedSequence(seed, spawn_key=(core_index, sample_index))`` —
    payloads stay tiny and every shard sees the identical corpus.
    ``cache`` is unused: timing measures the uncached analysis.
    """
    m, seed, core_index, sample_index, utilization_factor = payload
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(core_index, sample_index))
    )
    taskset = generate_taskset(rng, utilization_factor * m, GROUP1)
    start = time.perf_counter()
    result = analyze_taskset(taskset, m, AnalysisMethod.LP_ILP)
    seconds = time.perf_counter() - start
    return [[float(seconds), bool(result.schedulable)]]


def reduce_timing(artifact) -> list[TimingRow]:
    """Per-core-count aggregation over whichever items were evaluated."""
    core_counts = tuple(int(c) for c in artifact.meta["core_counts"])
    samples = int(artifact.meta["n_tasksets"])
    by_core: dict[int, list[tuple[float, bool]]] = {
        core_index: [] for core_index in range(len(core_counts))
    }
    for item, (row,) in sorted(artifact.records.items()):
        by_core[item // samples].append(row)
    out: list[TimingRow] = []
    for core_index, m in enumerate(core_counts):
        timed = by_core[core_index]
        if not timed:
            continue  # a shard's slice can skip a core count entirely
        durations = [seconds for seconds, _ in timed]
        out.append(TimingRow(
            m=m,
            samples=len(timed),
            mean_seconds=sum(durations) / len(durations),
            max_seconds=max(durations),
            positive_answers=sum(bool(s) for _, s in timed),
        ))
    return out


def timing_sweep(workload) -> CorpusSweep:
    """The engine sweep of a ``kind="timing"`` workload: item
    ``core_index * samples + sample_index`` times one sample."""
    core_counts = tuple(int(c) for c in workload.core_counts)
    samples, seed = workload.n_tasksets, workload.seed
    utilization_factor = workload.utilization_factor
    return CorpusSweep(
        kind=KIND_TIMING,
        digest=timing_fingerprint(
            core_counts, samples, seed, utilization_factor, GROUP1
        ),
        total_items=len(core_counts) * samples,
        meta={
            "core_counts": list(core_counts),
            "n_tasksets": samples,
            "seed": seed,
            "utilization_factor": utilization_factor,
            "method": AnalysisMethod.LP_ILP.value,
        },
        evaluate=_evaluate_timing_item,
        corpus=lambda: [
            (m, seed, core_index, sample_index, utilization_factor)
            for core_index, m in enumerate(core_counts)
            for sample_index in range(samples)
        ],
    )


def timing_table(rows: list[TimingRow], shard_note: str = "") -> str:
    """ASCII rendering for the CLI (same shape as the legacy table)."""
    from repro.experiments.reporting import format_table

    return format_table(
        ["m", "samples", "mean (s)", "max (s)", "schedulable"],
        [[r.m, r.samples, f"{r.mean_seconds:.4f}", f"{r.max_seconds:.4f}",
          r.positive_answers] for r in rows],
        title=("LP-ILP analysis runtime "
               f"(paper: 0.45s / 4.75s / 43min on CPLEX{shard_note})"),
    )


def write_timing_csv(rows: list[TimingRow], path) -> Path:
    """One CSV row per core count (durations are wall-clock, not
    deterministic — diff the schedulable column, not the seconds)."""
    from repro.experiments.reporting import write_csv

    return write_csv(
        path,
        ["m", "samples", "mean_seconds", "max_seconds", "positive_answers"],
        [[r.m, r.samples, repr(r.mean_seconds), repr(r.max_seconds),
          r.positive_answers] for r in rows],
    )

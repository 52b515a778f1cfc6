"""Workload-kind registry: every job kind behind one declarative schema.

PR 5 unified execution behind :class:`~repro.engine.jobspec.JobSpec`,
but the set of workloads it could describe was a closed enum baked into
``jobspec.py`` — three kinds, each with its own ``if kind == ...``
branch in validation, serialisation, session dispatch, orchestrator
merging and CLI rendering.  Opening a new scenario meant touching every
one of those layers.

This module inverts that: a workload kind is a *registration* — one
frozen :class:`KindSpec` record supplying everything the stack needs to
know about it:

* ``keys`` — the exact JSON keys the kind accepts, in emission order
  (strict: anything else is rejected, including known fields that do
  not apply to the kind);
* ``validate`` — kind-scoped parameter validation and defaulting;
* ``fingerprint`` / ``total_items`` — the workload's identity and item
  space (what shards slice and merges are validated against);
* ``run`` — execute a :class:`~repro.engine.jobspec.JobSpec` placement
  (shard / stream / shard_out / executor) and return the kind's result;
* ``merge`` + ``row_codec`` — recombine shard artifacts, and decode the
  kind's per-item row schema from artifact JSON;
* ``render`` / ``render_merged`` / ``write_csv`` — CLI presentation.

``jobspec``, ``session``, ``shard``, the orchestrator and the CLI all
dispatch through :func:`kind_spec` instead of branching on kind names,
so promoting a new scenario to a first-class, shardable,
daemon-dispatchable job is one ``register_kind`` call plus an
experiments module — a config change, not a refactor.

The registrations live at the bottom of this module; every callable
imports its experiment module lazily so importing the engine stays
cheap and cycle-free.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.exceptions import JobSpecError, ShardError

__all__ = [
    "KindSpec",
    "register_kind",
    "kind_spec",
    "workload_kinds",
    "known_artifact_kinds",
    "spec_for_artifact",
    "merge_artifacts",
    "row_codec_for",
    "DEFAULT_THRESHOLDS",
]

#: Default NPR-size thresholds of a splitsweep workload.
DEFAULT_THRESHOLDS = (1000.0, 100.0, 50.0, 25.0, 10.0, 5.0)

#: Default core-count grid of a timing workload (the paper's Table 3).
DEFAULT_CORE_COUNTS = (4, 8, 16)


@dataclass(frozen=True, slots=True)
class KindSpec:
    """Everything the engine stack knows about one workload kind.

    Attributes
    ----------
    name:
        The ``Workload.kind`` string.
    keys:
        JSON keys the kind accepts, in emission order (``"kind"``
        first).  Doubles as the strictness contract: a workload field
        *not* listed here must stay at its dataclass default.
    artifact_kind:
        The ``kind`` tag of the shard artifacts this workload produces
        (figure2/group2 share the chunked ``"sweep"`` tag; row-based
        kinds each tag their own).
    default_tasksets:
        ``n_tasksets`` resolution for ``None``.
    supports_checkpoint:
        Whether invocations can resume from engine checkpoints (and
        accept ``chunk_size`` / explicit ``items`` subsets — the
        elastic orchestrator requires this).
    supports_cache:
        Whether the verdict cache applies (``execution.cache``).
    validate:
        Kind-scoped validation run at the end of
        ``Workload.__post_init__``; may materialise defaults via
        ``object.__setattr__``.
    fingerprint / total_items:
        Workload identity and unsharded item count.
    run:
        ``run(job, progress) -> result`` honouring the job's execution
        placement (executor, jobs, shard, shard_out, stream).
    merge:
        Recombine a full shard set (paths or loaded artifacts) into
        the kind's result type.
    render / render_merged / write_csv:
        CLI presentation hooks: ``render(result, workload,
        shard_note)``, ``render_merged(result, meta, n_shards)``, and
        ``write_csv(result, path) -> Path``.
    row_codec:
        Decode one per-item row from artifact/stream JSON into the
        kind's typed row tuple; ``None`` for chunk-record (``"sweep"``)
        artifacts.
    sweep_spec:
        Builder of the engine ``SweepSpec``, for kinds that are
        utilisation-grid sweeps; ``None`` otherwise.
    reject_hints:
        Optional per-field hints appended to the generic
        "``<kind> workloads take no <field>``" rejection.
    """

    name: str
    keys: tuple[str, ...]
    artifact_kind: str
    default_tasksets: int
    supports_checkpoint: bool
    supports_cache: bool
    validate: Callable[[Any], None]
    fingerprint: Callable[[Any], str]
    total_items: Callable[[Any], int]
    run: Callable[[Any, Any], Any]
    merge: Callable[[Sequence[Any]], Any]
    render: Callable[[Any, Any, str], str]
    render_merged: Callable[[Any, Mapping, int], str]
    write_csv: Callable[[Any, Any], Path]
    row_codec: Callable[[Sequence], tuple] | None = None
    sweep_spec: Callable[[Any], Any] | None = None
    reject_hints: Mapping[str, str] = field(default_factory=dict)


_REGISTRY: dict[str, KindSpec] = {}


def register_kind(spec: KindSpec) -> KindSpec:
    """Register a workload kind (idempotent re-registration is an error)."""
    if spec.name in _REGISTRY:
        raise JobSpecError(f"workload kind {spec.name!r} is already registered")
    if spec.keys[0] != "kind":
        raise JobSpecError(
            f"kind {spec.name!r}: keys must start with 'kind', got {spec.keys}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def workload_kinds() -> tuple[str, ...]:
    """Registered kind names, in registration order."""
    return tuple(_REGISTRY)


def kind_spec(name: str) -> KindSpec:
    """The :class:`KindSpec` for ``name``; :class:`JobSpecError` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise JobSpecError(
            f"unknown workload kind {name!r}; "
            f"expected one of {workload_kinds()}"
        ) from None


def known_artifact_kinds() -> tuple[str, ...]:
    """Every shard-artifact ``kind`` tag some registered kind produces."""
    seen: dict[str, None] = {}
    for spec in _REGISTRY.values():
        seen.setdefault(spec.artifact_kind, None)
    return tuple(seen)


def spec_for_artifact(artifact_kind: str) -> KindSpec:
    """The first registered kind producing ``artifact_kind`` artifacts.

    figure2/group2 share the ``"sweep"`` tag and an identical merge
    path, so first-match is well-defined; raises :class:`ShardError`
    for a tag no registered kind produces.
    """
    for spec in _REGISTRY.values():
        if spec.artifact_kind == artifact_kind:
            return spec
    raise ShardError(
        f"no registered workload kind produces {artifact_kind!r} "
        f"shard artifacts (known: {', '.join(known_artifact_kinds())})"
    )


def merge_artifacts(artifact_kind: str, artifacts: Sequence[Any]):
    """Merge a shard set by its artifact kind tag."""
    return spec_for_artifact(artifact_kind).merge(artifacts)


def row_codec_for(artifact_kind: str) -> Callable[[Sequence], tuple] | None:
    """The row decoder for an artifact kind (``None`` = chunk records)."""
    return spec_for_artifact(artifact_kind).row_codec


# ----------------------------------------------------------------------
# Row codecs (artifact/stream JSON -> typed row tuples).  These are the
# kinds' on-disk row schemas; merges re-validate shapes on top.

def _splitsweep_row(row: Sequence) -> tuple:
    q, tasks, utilization, schedulable = row
    return (int(q), int(tasks), float(utilization), bool(schedulable))


def _sensitivity_row(row: Sequence) -> tuple:
    fp_ideal, lp_ilp, lp_max, slack = row
    return (float(fp_ideal), float(lp_ilp), float(lp_max), float(slack))


def _simulate_row(row: Sequence) -> tuple:
    schedulable, misses, ratio, violation = row
    return (bool(schedulable), int(misses), float(ratio), bool(violation))


def _timing_row(row: Sequence) -> tuple:
    seconds, schedulable = row
    return (float(seconds), bool(schedulable))


# ----------------------------------------------------------------------
# figure2 / group2: utilisation-grid sweeps over the chunked engine.

def _set(workload, name: str, value) -> None:
    object.__setattr__(workload, name, value)


def _validate_figure2(w) -> None:
    if w.step is not None and w.step <= 0:
        raise JobSpecError(f"step must be > 0, got {w.step}")
    if w.mu_method not in ("search", "ilp", "ilp-paper"):
        raise JobSpecError(
            f"unknown mu_method {w.mu_method!r}; expected "
            "search, ilp or ilp-paper"
        )
    if w.rho_solver not in ("assignment", "ilp"):
        raise JobSpecError(
            f"unknown rho_solver {w.rho_solver!r}; expected "
            "assignment or ilp"
        )


def _validate_group2(w) -> None:
    if w.step is not None and w.step <= 0:
        raise JobSpecError(f"step must be > 0, got {w.step}")


def _figure2_sweep_spec(w):
    from repro.experiments.figure2 import figure2_spec

    return figure2_spec(
        m=w.m, n_tasksets=w.n_tasksets, seed=w.seed, step=w.step,
        mu_method=w.mu_method, rho_solver=w.rho_solver,
    )


def _group2_sweep_spec(w):
    from repro.experiments.group2 import group2_spec

    return group2_spec(
        m=w.m, n_tasksets=w.n_tasksets, seed=w.seed, step=w.step,
    )


def _sweep_fingerprint(w) -> str:
    return w.sweep_spec().fingerprint()


def _sweep_total_items(w) -> int:
    return w.sweep_spec().total_items


def _run_sweep_job(job, progress):
    from repro.engine.executors import make_executor
    from repro.engine.sweep import SweepEngine

    policy = job.execution
    with make_executor(policy.jobs, kind=policy.executor) as executor:
        engine = SweepEngine(
            executor=executor,
            chunk_size=policy.chunk_size,
            checkpoint_path=policy.checkpoint,
            progress=progress,
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


def _merge_sweep(artifacts):
    from repro.engine.shard import merge_shards

    return merge_shards(artifacts)


def _sweep_title(title: str, w, shard_note: str) -> str:
    return (f"{title} (m={w.m}, {w.n_tasksets} task-sets/point{shard_note})")


def _render_figure2(result, w, shard_note: str = "") -> str:
    from repro.experiments.reporting import sweep_table

    return sweep_table(result, title=_sweep_title("Figure 2", w, shard_note))


def _render_group2(result, w, shard_note: str = "") -> str:
    from repro.experiments.group2 import summarize_group2
    from repro.experiments.reporting import sweep_table

    report = summarize_group2(result)
    return (
        sweep_table(result, title=_sweep_title("Group 2", w, shard_note))
        + f"\n\nLP-max vs LP-ILP ratio gap: "
        f"max {100 * report.max_gap:.1f} pts, "
        f"mean {100 * report.mean_gap:.1f} pts "
        f"({'agree' if report.methods_agree else 'diverge'})"
    )


def _render_merged_sweep(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.reporting import sweep_table

    return sweep_table(
        result,
        title=(f"Merged sweep {result.label} (m={result.m}, "
               f"{n_shards} shards, "
               f"{result.points[0].n_tasksets if result.points else 0} "
               f"task-sets/point)"),
    ) + f"\n\ntotal shard compute: {result.elapsed_seconds:.1f}s"


def _write_sweep_csv(result, path) -> Path:
    from repro.experiments.reporting import write_sweep_csv

    return write_sweep_csv(result, path)


# ----------------------------------------------------------------------
# splitsweep: preemption-point granularity ablation (row-based).

def _validate_splitsweep(w) -> None:
    if w.thresholds is None:
        _set(w, "thresholds", DEFAULT_THRESHOLDS)
    thresholds = tuple(
        sorted((float(t) for t in w.thresholds), reverse=True)
    )
    if not thresholds:
        raise JobSpecError("splitsweep needs at least one threshold")
    if not thresholds[-1] > 0:
        raise JobSpecError(f"thresholds must be > 0, got {thresholds[-1]:g}")
    _set(w, "thresholds", thresholds)
    if w.overhead < 0:
        raise JobSpecError(f"overhead must be >= 0, got {w.overhead}")
    if w.utilization is None:
        _set(w, "utilization", 1.75)
    if not w.utilization > 0:
        raise JobSpecError(f"utilization must be > 0, got {w.utilization}")


def _splitsweep_fingerprint(w) -> str:
    from repro.core.analyzer import AnalysisMethod
    from repro.experiments.splitsweep import split_sweep_fingerprint
    from repro.generator.profiles import GROUP1

    return split_sweep_fingerprint(
        w.m, w.utilization, w.thresholds, w.n_tasksets,
        w.seed, GROUP1, AnalysisMethod.LP_ILP, w.overhead,
    )


def _run_splitsweep_job(job, progress):
    from repro.experiments.splitsweep import run_splitsweep_job

    return run_splitsweep_job(job)


def _merge_splitsweep(artifacts):
    from repro.experiments.splitsweep import merge_splitsweep_shards

    return merge_splitsweep_shards(artifacts)


def _render_splitsweep(result, w, shard_note: str = "") -> str:
    from repro.experiments.reporting import split_sweep_table

    table = split_sweep_table(
        result,
        title=(f"Preemption-point granularity sweep "
               f"(m={w.m}, U={w.utilization}, "
               f"overhead={w.overhead:g}, "
               f"{w.n_tasksets} task-sets{shard_note})"),
    )
    if w.overhead == 0.0:
        note = (
            "Overhead-free (the paper's model): finer NPRs only shrink the\n"
            "blocking terms, so LP-ILP approaches FP-ideal monotonically.\n"
            "Re-run with --overhead > 0 to see the placement tradeoff the\n"
            "paper's introduction motivates (each point inflates WCETs)."
        )
    else:
        note = (
            "With per-point overhead, inserted points inflate WCETs: past\n"
            "some granularity the added utilisation outweighs the blocking\n"
            "reduction - the tradeoff of the paper's refs [12], [17], [18]."
        )
    return f"{table}\n\n{note}"


def _render_merged_splitsweep(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.reporting import split_sweep_table

    return split_sweep_table(
        result,
        title=(f"Merged preemption-point sweep "
               f"(m={meta['m']}, U={meta['utilization']}, "
               f"overhead={meta['overhead']:g}, "
               f"{meta['n_tasksets']} task-sets, "
               f"{n_shards} shards)"),
        method=str(meta.get("method", "LP-ILP")),
    )


def _write_splitsweep_csv(result, path) -> Path:
    from repro.experiments.reporting import write_split_sweep_csv

    return write_split_sweep_csv(result, path)


# ----------------------------------------------------------------------
# sensitivity: breakdown-utilisation / blocking-slack sweeps.

def _validate_sensitivity(w) -> None:
    if w.utilization is None:
        _set(w, "utilization", 1.0)
    if not w.utilization > 0:
        raise JobSpecError(f"utilization must be > 0, got {w.utilization}")
    if w.max_scale is None:
        _set(w, "max_scale", 8.0)
    if not w.max_scale > 0:
        raise JobSpecError(f"max_scale must be > 0, got {w.max_scale}")


def _sensitivity_fingerprint(w) -> str:
    from repro.experiments.sensitivity import sensitivity_fingerprint
    from repro.generator.profiles import GROUP1

    return sensitivity_fingerprint(
        w.m, w.utilization, w.max_scale, w.n_tasksets, w.seed, GROUP1,
    )


def _run_sensitivity_job(job, progress):
    from repro.experiments.sensitivity import run_sensitivity_job

    return run_sensitivity_job(job)


def _merge_sensitivity(artifacts):
    from repro.experiments.sensitivity import merge_sensitivity_shards

    return merge_sensitivity_shards(artifacts)


def _render_sensitivity(result, w, shard_note: str = "") -> str:
    from repro.experiments.sensitivity import sensitivity_table

    return sensitivity_table(result, shard_note=shard_note)


def _render_merged_sensitivity(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.sensitivity import sensitivity_table

    return sensitivity_table(result, shard_note=f", {n_shards} shards")


def _write_sensitivity_csv(result, path) -> Path:
    from repro.experiments.sensitivity import write_sensitivity_csv

    return write_sensitivity_csv(result, path)


# ----------------------------------------------------------------------
# simulate: analysis-vs-simulation validation sweeps.

def _validate_simulate(w) -> None:
    if w.utilization is None:
        _set(w, "utilization", 2.0)
    if not w.utilization > 0:
        raise JobSpecError(f"utilization must be > 0, got {w.utilization}")
    if w.horizon_factor is None:
        _set(w, "horizon_factor", 4.0)
    if not w.horizon_factor > 0:
        raise JobSpecError(
            f"horizon_factor must be > 0, got {w.horizon_factor}"
        )


def _simulate_fingerprint(w) -> str:
    from repro.experiments.simulate import simulation_fingerprint
    from repro.generator.profiles import GROUP1

    return simulation_fingerprint(
        w.m, w.utilization, w.horizon_factor, w.n_tasksets, w.seed, GROUP1,
    )


def _run_simulate_job(job, progress):
    from repro.experiments.simulate import run_simulate_job

    return run_simulate_job(job)


def _merge_simulate(artifacts):
    from repro.experiments.simulate import merge_simulation_shards

    return merge_simulation_shards(artifacts)


def _render_simulate(result, w, shard_note: str = "") -> str:
    from repro.experiments.simulate import simulation_table

    return simulation_table(result, shard_note=shard_note)


def _render_merged_simulate(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.simulate import simulation_table

    return simulation_table(result, shard_note=f", {n_shards} shards")


def _write_simulate_csv(result, path) -> Path:
    from repro.experiments.simulate import write_simulation_csv

    return write_simulation_csv(result, path)


# ----------------------------------------------------------------------
# timing: analysis-runtime scaling over a core-count grid.

def _validate_timing(w) -> None:
    if w.core_counts is None:
        _set(w, "core_counts", DEFAULT_CORE_COUNTS)
    counts = tuple(int(c) for c in w.core_counts)
    if not counts:
        raise JobSpecError("timing needs at least one core count")
    for count in counts:
        if count < 1:
            raise JobSpecError(f"core count m must be >= 1, got {count}")
    _set(w, "core_counts", counts)
    if w.utilization_factor is None:
        _set(w, "utilization_factor", 0.5)
    if not w.utilization_factor > 0:
        raise JobSpecError(
            f"utilization_factor must be > 0, got {w.utilization_factor}"
        )


def _timing_fingerprint(w) -> str:
    from repro.experiments.timing import timing_fingerprint
    from repro.generator.profiles import GROUP1

    return timing_fingerprint(
        w.core_counts, w.n_tasksets, w.seed, w.utilization_factor, GROUP1,
    )


def _timing_total_items(w) -> int:
    return len(w.core_counts) * w.n_tasksets


def _run_timing_job(job, progress):
    from repro.experiments.timing import run_timing_job

    return run_timing_job(job)


def _merge_timing(artifacts):
    from repro.experiments.timing import merge_timing_shards

    return merge_timing_shards(artifacts)


def _render_timing(result, w, shard_note: str = "") -> str:
    from repro.experiments.timing import timing_table

    return timing_table(result, shard_note=shard_note)


def _render_merged_timing(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.timing import timing_table

    return timing_table(result, shard_note=f", {n_shards} shards")


def _write_timing_csv(result, path) -> Path:
    from repro.experiments.timing import write_timing_csv

    return write_timing_csv(result, path)


# ----------------------------------------------------------------------
# Registrations.  Order is user-facing (kind listings, error messages):
# the three original kinds first, then the PR-7 promotions.

register_kind(KindSpec(
    name="figure2",
    keys=("kind", "m", "n_tasksets", "seed", "step",
          "mu_method", "rho_solver"),
    artifact_kind="sweep",
    default_tasksets=300,
    supports_checkpoint=True,
    supports_cache=True,
    validate=_validate_figure2,
    fingerprint=_sweep_fingerprint,
    total_items=_sweep_total_items,
    run=_run_sweep_job,
    merge=_merge_sweep,
    render=_render_figure2,
    render_merged=_render_merged_sweep,
    write_csv=_write_sweep_csv,
    sweep_spec=_figure2_sweep_spec,
))

register_kind(KindSpec(
    name="group2",
    keys=("kind", "m", "n_tasksets", "seed", "step"),
    artifact_kind="sweep",
    default_tasksets=300,
    supports_checkpoint=True,
    supports_cache=True,
    validate=_validate_group2,
    fingerprint=_sweep_fingerprint,
    total_items=_sweep_total_items,
    run=_run_sweep_job,
    merge=_merge_sweep,
    render=_render_group2,
    render_merged=_render_merged_sweep,
    write_csv=_write_sweep_csv,
    sweep_spec=_group2_sweep_spec,
    reject_hints={
        "mu_method": "the group-2 spec does not parameterise the solver",
        "rho_solver": "the group-2 spec does not parameterise the solver",
    },
))

register_kind(KindSpec(
    name="splitsweep",
    keys=("kind", "m", "n_tasksets", "seed",
          "utilization", "thresholds", "overhead"),
    artifact_kind="splitsweep",
    default_tasksets=30,
    supports_checkpoint=False,
    supports_cache=False,
    validate=_validate_splitsweep,
    fingerprint=_splitsweep_fingerprint,
    total_items=lambda w: w.n_tasksets,
    run=_run_splitsweep_job,
    merge=_merge_splitsweep,
    render=_render_splitsweep,
    render_merged=_render_merged_splitsweep,
    write_csv=_write_splitsweep_csv,
    row_codec=_splitsweep_row,
    reject_hints={
        "mu_method": "the split sweep fixes its LP-ILP solver",
        "rho_solver": "the split sweep fixes its LP-ILP solver",
    },
))

register_kind(KindSpec(
    name="sensitivity",
    keys=("kind", "m", "n_tasksets", "seed", "utilization", "max_scale"),
    artifact_kind="sensitivity",
    default_tasksets=20,
    supports_checkpoint=False,
    supports_cache=False,
    validate=_validate_sensitivity,
    fingerprint=_sensitivity_fingerprint,
    total_items=lambda w: w.n_tasksets,
    run=_run_sensitivity_job,
    merge=_merge_sensitivity,
    render=_render_sensitivity,
    render_merged=_render_merged_sensitivity,
    write_csv=_write_sensitivity_csv,
    row_codec=_sensitivity_row,
))

register_kind(KindSpec(
    name="simulate",
    keys=("kind", "m", "n_tasksets", "seed",
          "utilization", "horizon_factor"),
    artifact_kind="simulate",
    default_tasksets=20,
    supports_checkpoint=False,
    supports_cache=False,
    validate=_validate_simulate,
    fingerprint=_simulate_fingerprint,
    total_items=lambda w: w.n_tasksets,
    run=_run_simulate_job,
    merge=_merge_simulate,
    render=_render_simulate,
    render_merged=_render_merged_simulate,
    write_csv=_write_simulate_csv,
    row_codec=_simulate_row,
))

register_kind(KindSpec(
    name="timing",
    keys=("kind", "core_counts", "n_tasksets", "seed",
          "utilization_factor"),
    artifact_kind="timing",
    default_tasksets=20,
    supports_checkpoint=False,
    supports_cache=False,
    validate=_validate_timing,
    fingerprint=_timing_fingerprint,
    total_items=_timing_total_items,
    run=_run_timing_job,
    merge=_merge_timing,
    render=_render_timing,
    render_merged=_render_merged_timing,
    write_csv=_write_timing_csv,
    row_codec=_timing_row,
    reject_hints={
        "m": "timing sweeps its per-point core count via 'core_counts'",
    },
))

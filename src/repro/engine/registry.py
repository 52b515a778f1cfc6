"""Workload-kind registry: every job kind behind one declarative schema.

A workload kind is a *registration* — one frozen :class:`KindSpec`
record supplying everything the stack needs to know about it:

* ``keys`` — the exact JSON keys the kind accepts, in emission order
  (strict: anything else is rejected, including known fields that do
  not apply to the kind);
* ``validate`` — kind-scoped parameter validation and defaulting;
* ``sweep`` — the workload's sweep for
  :class:`~repro.engine.sweep.SweepEngine` (a
  :class:`~repro.engine.sweep.SweepSpec` grid or a
  :class:`~repro.engine.sweep.CorpusSweep`), which also fixes the
  workload's fingerprint and item count;
* ``row_codec`` + ``reduce`` — decode one per-item row from artifact
  or checkpoint JSON, and reduce an artifact's records in item order
  to the kind's result;
* ``render`` / ``render_merged`` / ``write_csv`` — CLI presentation.

Every kind runs on the one engine, so a new scenario is one
``register_kind`` call plus an experiments module; ``jobspec``,
``session``, ``shard`` and the CLI all dispatch through
:func:`kind_spec` / :func:`spec_for_artifact` instead of branching on
kind names.

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
        The ``kind`` tag of the shard artifacts and stream headers
        this workload's sweeps write (figure2/group2 share the grid
        ``"sweep"`` tag and its reduction; the other kinds tag their
        own).
    default_tasksets:
        ``n_tasksets`` resolution for ``None``.
    supports_cache:
        Whether the verdict cache applies (``execution.cache``).
    validate:
        Kind-scoped validation run at the end of
        ``Workload.__post_init__``; may materialise defaults via
        ``object.__setattr__``.
    sweep:
        ``sweep(workload)`` -> the engine sweep the workload denotes.
    row_codec:
        Decode one per-item row from JSON into the kind's typed row
        tuple (raises ``TypeError``/``ValueError`` on a malformed row).
    reduce:
        ``reduce(artifact) -> result``: fold an artifact's records, in
        item order, into the kind's result — the one reduction behind
        inline runs and shard merges.
    render / render_merged / write_csv:
        CLI presentation hooks: ``render(result, workload,
        shard_note)``, ``render_merged(result, meta, n_shards)``, and
        ``write_csv(result, path) -> Path``.
    reject_hints:
        Optional per-field hints appended to the generic
        "``<kind> workloads take no <field>``" rejection.
    """

    name: str
    keys: tuple[str, ...]
    artifact_kind: str
    default_tasksets: int
    supports_cache: bool
    validate: Callable[[Any], None]
    sweep: Callable[[Any], Any]
    row_codec: Callable[[Sequence], tuple]
    reduce: Callable[[Any], Any]
    render: Callable[[Any, Any, str], str]
    render_merged: Callable[[Any, Mapping, int], str]
    write_csv: Callable[[Any, Any], Path]
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

    figure2/group2 share the ``"sweep"`` tag and an identical
    reduction, so first-match is well-defined; raises
    :class:`ShardError` for a tag no registered kind produces.
    """
    for spec in _REGISTRY.values():
        if spec.artifact_kind == artifact_kind:
            return spec
    raise ShardError(
        f"no registered workload kind produces {artifact_kind!r} "
        f"shard artifacts (known: {', '.join(known_artifact_kinds())})"
    )


def merge_artifacts(shards: Sequence[Any]):
    """Recombine a full shard set (paths or loaded artifacts) into the
    kind's result, bit-identical to the serial unsharded run.

    Raises :class:`ShardError` for an incomplete or inconsistent set,
    or for records the kind's reduction rejects.
    """
    from repro.engine.shard import combine_shards

    artifact = combine_shards(shards)
    try:
        return spec_for_artifact(artifact.kind).reduce(artifact)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ShardError(
            f"{artifact.kind} shard records do not reduce ({exc!r}); "
            "an artifact is corrupt"
        ) from exc


def _lazy(module: str, name: str) -> Callable:
    """A callable importing ``module`` on first use and calling ``name``.

    Keeps ``import repro.engine`` from importing every experiment (and
    their analysis stacks) just to register the kinds.
    """
    def call(*args):
        from importlib import import_module

        return getattr(import_module(module), name)(*args)

    return call


# ----------------------------------------------------------------------
# Row codecs (artifact/checkpoint JSON -> typed row tuples).  These
# are the kinds' on-disk row schemas; reductions re-validate shapes.

def _sweep_row(row: Sequence) -> tuple:
    return tuple(bool(schedulable) for schedulable in row)


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
# figure2 / group2: utilisation-grid sweeps.

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


# ----------------------------------------------------------------------
# splitsweep: preemption-point granularity ablation.

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


def _render_sensitivity(result, w, shard_note: str = "") -> str:
    from repro.experiments.sensitivity import sensitivity_table

    return sensitivity_table(result, shard_note=shard_note)


def _render_merged_sensitivity(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.sensitivity import sensitivity_table

    return sensitivity_table(result, shard_note=f", {n_shards} shards")


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


def _render_simulate(result, w, shard_note: str = "") -> str:
    from repro.experiments.simulate import simulation_table

    return simulation_table(result, shard_note=shard_note)


def _render_merged_simulate(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.simulate import simulation_table

    return simulation_table(result, shard_note=f", {n_shards} shards")


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


def _render_timing(result, w, shard_note: str = "") -> str:
    from repro.experiments.timing import timing_table

    return timing_table(result, shard_note=shard_note)


def _render_merged_timing(result, meta: Mapping, n_shards: int) -> str:
    from repro.experiments.timing import timing_table

    return timing_table(result, shard_note=f", {n_shards} shards")


# ----------------------------------------------------------------------
# Registrations.  Order is user-facing (kind listings, error messages):
# the three original kinds first, then the later promotions.

_reduce_sweep = _lazy("repro.engine.sweep", "reduce_sweep")
_write_sweep_csv = _lazy("repro.experiments.reporting", "write_sweep_csv")

register_kind(KindSpec(
    name="figure2",
    keys=("kind", "m", "n_tasksets", "seed", "step",
          "mu_method", "rho_solver"),
    artifact_kind="sweep",
    default_tasksets=300,
    supports_cache=True,
    validate=_validate_figure2,
    sweep=_figure2_sweep_spec,
    row_codec=_sweep_row,
    reduce=_reduce_sweep,
    render=_render_figure2,
    render_merged=_render_merged_sweep,
    write_csv=_write_sweep_csv,
))

register_kind(KindSpec(
    name="group2",
    keys=("kind", "m", "n_tasksets", "seed", "step"),
    artifact_kind="sweep",
    default_tasksets=300,
    supports_cache=True,
    validate=_validate_group2,
    sweep=_group2_sweep_spec,
    row_codec=_sweep_row,
    reduce=_reduce_sweep,
    render=_render_group2,
    render_merged=_render_merged_sweep,
    write_csv=_write_sweep_csv,
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
    supports_cache=False,
    validate=_validate_splitsweep,
    sweep=_lazy("repro.experiments.splitsweep", "splitsweep_sweep"),
    row_codec=_splitsweep_row,
    reduce=_lazy("repro.experiments.splitsweep", "reduce_splitsweep"),
    render=_render_splitsweep,
    render_merged=_render_merged_splitsweep,
    write_csv=_lazy("repro.experiments.reporting", "write_split_sweep_csv"),
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
    supports_cache=False,
    validate=_validate_sensitivity,
    sweep=_lazy("repro.experiments.sensitivity", "sensitivity_sweep"),
    row_codec=_sensitivity_row,
    reduce=_lazy("repro.experiments.sensitivity", "reduce_sensitivity"),
    render=_render_sensitivity,
    render_merged=_render_merged_sensitivity,
    write_csv=_lazy("repro.experiments.sensitivity", "write_sensitivity_csv"),
))

register_kind(KindSpec(
    name="simulate",
    keys=("kind", "m", "n_tasksets", "seed",
          "utilization", "horizon_factor"),
    artifact_kind="simulate",
    default_tasksets=20,
    supports_cache=False,
    validate=_validate_simulate,
    sweep=_lazy("repro.experiments.simulate", "simulation_sweep"),
    row_codec=_simulate_row,
    reduce=_lazy("repro.experiments.simulate", "reduce_simulation"),
    render=_render_simulate,
    render_merged=_render_merged_simulate,
    write_csv=_lazy("repro.experiments.simulate", "write_simulation_csv"),
))

register_kind(KindSpec(
    name="timing",
    keys=("kind", "core_counts", "n_tasksets", "seed",
          "utilization_factor"),
    artifact_kind="timing",
    default_tasksets=20,
    supports_cache=False,
    validate=_validate_timing,
    sweep=_lazy("repro.experiments.timing", "timing_sweep"),
    row_codec=_timing_row,
    reduce=_lazy("repro.experiments.timing", "reduce_timing"),
    render=_render_timing,
    render_merged=_render_merged_timing,
    write_csv=_lazy("repro.experiments.timing", "write_timing_csv"),
    reject_hints={
        "m": "timing sweeps its per-point core count via 'core_counts'",
    },
))

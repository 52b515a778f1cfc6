"""Declarative job descriptions: one serializable object from CLI to shard.

Four PRs of organic growth left the execution stack with several
near-duplicate entry points, each taking the same ever-growing kwarg
forest (``jobs``, ``checkpoint``, ``shard``, ``shard_out``, ``stream``,
``items``, ``chunk_size``, ...).  A :class:`JobSpec` replaces all of
that with a single frozen, JSON-round-trippable value with two
sections:

* the **workload** (:class:`Workload`): *what* to compute — a
  registered ``kind`` (``figure2``, ``group2``, ``splitsweep``, ...)
  plus that experiment's generator/analysis parameters.  The workload
  alone determines the sweep fingerprint, so two jobs with equal
  workloads merge and resume interchangeably regardless of how they
  execute;
* the **execution policy** (:class:`ExecutionPolicy`): *how* to run it
  — worker count, chunk sizing, checkpoint / stream /
  shard-artifact paths, and an optional shard (or explicit item subset)
  restricting the invocation to a slice of the item space.

Everything speaks this one schema: ``python -m repro sweep-run --job
job.json`` executes a spec from disk, its ``figure2`` / ``group2`` /
``splitsweep`` aliases build one from their workload flags, the
orchestrator dispatches per-shard specs as ``sweep-run --job-json
'<spec>'`` command lines (so each shard's command line embeds the
JobSpec JSON verbatim), and :class:`~repro.engine.session.Session` is
the programmatic façade.

The on-disk format is versioned (:data:`JOBSPEC_VERSION`) and *strict*:
unknown keys, keys that do not apply to the workload's kind, and
version skews all raise :class:`~repro.exceptions.JobSpecError` instead
of being silently dropped — a job file is a contract, not a suggestion.
Override layering (:meth:`JobSpec.with_overrides`, the CLI's ``--set
key=value``) patches a loaded spec without mutating the file.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.exceptions import JobSpecError, ShardError
from repro.engine.registry import kind_spec, workload_kinds
from repro.engine.shard import ShardSpec, parse_items, parse_shard
from repro.engine.vcache import CACHE_MODES

#: Bump when the JobSpec JSON schema changes; older files are rejected.
JOBSPEC_VERSION = 1

#: Workload kinds a :class:`JobSpec` can describe — everything
#: registered with :mod:`repro.engine.registry` (importing this module
#: triggers the built-in registrations).
WORKLOAD_KINDS = workload_kinds()

def _parse_opt_float(text: str) -> float | None:
    if text.strip().lower() in ("", "none", "null"):
        return None
    return float(text)


def _parse_opt_int(text: str) -> int | None:
    if text.strip().lower() in ("", "none", "null"):
        return None
    return int(text)


def _parse_opt_str(text: str) -> str | None:
    if text.strip().lower() in ("", "none", "null"):
        return None
    return text


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    pieces = [p for p in text.replace(",", " ").split() if p]
    if not pieces:
        raise ValueError("empty number list")
    return tuple(float(p) for p in pieces)


def _parse_ints(text: str) -> tuple[int, ...]:
    pieces = [p for p in text.replace(",", " ").split() if p]
    if not pieces:
        raise ValueError("empty number list")
    return tuple(int(p) for p in pieces)


#: ``--set`` coercers, per section and field (strings → typed values).
_WORKLOAD_PARSERS = {
    "kind": str,
    "m": int,
    "n_tasksets": int,
    "seed": int,
    "step": _parse_opt_float,
    "mu_method": str,
    "rho_solver": str,
    "utilization": float,
    "thresholds": _parse_floats,
    "overhead": float,
    "core_counts": _parse_ints,
    "max_scale": float,
    "horizon_factor": float,
    "utilization_factor": float,
}

_EXECUTION_PARSERS = {
    "jobs": int,
    "chunk_size": _parse_opt_int,
    "checkpoint": _parse_opt_str,
    "stream": _parse_opt_str,
    "shard_out": _parse_opt_str,
    "shard": lambda text: parse_shard(text) if text.strip().lower() not in ("", "none", "null") else None,
    "items": lambda text: parse_items(text) if text.strip().lower() not in ("", "none", "null") else None,
    "cache": str,
    "cache_dir": _parse_opt_str,
    "publish": _parse_bool,
    "store_dir": _parse_opt_str,
}

# JSON value checkers, called with the dotted key for the message.  A
# job file's value must already have the field's JSON type: nothing is
# truncated (2.7 is no integer) and no string or boolean stands in for
# a number, nor a string for a boolean.

def _malformed(name: str, expected: str, value: object) -> JobSpecError:
    shown = json.dumps(value, default=repr)
    return JobSpecError(f"malformed {name}: expected {expected}, got {shown}")


def _json_int(name: str, value: object) -> int:
    if type(value) is not int:  # bool is an int subclass: refused too
        raise _malformed(name, "a JSON integer", value)
    return value


def _json_float(name: str, value: object) -> float:
    if type(value) not in (int, float):
        raise _malformed(name, "a JSON number", value)
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise _malformed(name, "a finite JSON number", value) from None


def _json_bool(name: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise _malformed(name, "a JSON boolean", value)
    return value


def _json_str(name: str, value: object) -> str:
    if not isinstance(value, str):
        raise _malformed(name, "a JSON string", value)
    return value


def _json_path(name: str, value: object) -> str:
    # A ``Path`` built in code is a string once serialised.
    if not isinstance(value, (str, os.PathLike)):
        raise _malformed(name, "a JSON string", value)
    return os.fspath(value)


def _json_list(check):
    def coerce(name: str, value: object) -> tuple:
        if not isinstance(value, Sequence) or isinstance(value, str):
            raise _malformed(name, "a JSON list", value)
        return tuple(check(f"{name}[{i}]", v) for i, v in enumerate(value))

    return coerce


#: JSON value checkers per workload key.  Which keys a payload may use
#: at all comes from the kind's registry entry (strictness: anything
#: else is rejected, including known fields that do not apply).
_KEY_CODERS = {
    "m": _json_int,
    "n_tasksets": _json_int,
    "seed": _json_int,
    "step": lambda name, value: (
        None if value is None else _json_float(name, value)
    ),
    "mu_method": _json_str,
    "rho_solver": _json_str,
    "utilization": _json_float,
    "overhead": _json_float,
    "thresholds": _json_list(_json_float),
    "core_counts": _json_list(_json_int),
    "max_scale": _json_float,
    "horizon_factor": _json_float,
    "utilization_factor": _json_float,
}

_EXECUTION_KEYS = ("jobs", "chunk_size", "checkpoint",
                   "stream", "shard_out", "shard", "items",
                   "cache", "cache_dir", "publish", "store_dir")

#: Execution fields holding a path (``None`` when unset).
_PATH_KEYS = ("checkpoint", "stream", "shard_out", "cache_dir", "store_dir")

#: Workload field defaults, for the registry-driven strictness check
#: (fields outside a kind's key set must hold exactly these values).
_FIELD_DEFAULTS = {
    "m": 4,
    "n_tasksets": None,
    "seed": 2016,
    "step": None,
    "mu_method": "search",
    "rho_solver": "assignment",
    "utilization": None,
    "thresholds": None,
    "overhead": 0.0,
    "core_counts": None,
    "max_scale": None,
    "horizon_factor": None,
    "utilization_factor": None,
}

#: Workload fields holding floats (or a tuple of them): each must be
#: finite — an infinite utilisation or horizon never terminates, and a
#: NaN step silently collapses the grid to one point.
_FLOAT_FIELDS = ("step", "utilization", "thresholds", "overhead",
                 "max_scale", "horizon_factor", "utilization_factor")

#: Workload fields whose ``None`` means "the kind's default".
_OPTIONAL_FIELDS = {name for name, default in _FIELD_DEFAULTS.items()
                    if default is None}


@dataclass(frozen=True, slots=True)
class Workload:
    """What one job computes: an experiment kind plus its parameters.

    Fields not applicable to the ``kind`` must stay at their defaults —
    a figure2 workload with ``utilization`` set, or a group2 workload
    with a non-default ``mu_method``, is rejected rather than silently
    ignored, so a job file can never *look* like it configures
    something it does not.

    Attributes
    ----------
    kind:
        A kind registered with :mod:`repro.engine.registry`
        (``figure2``, ``group2``, ``splitsweep``, ``sensitivity``,
        ``simulate``, ``timing``).
    m:
        Core count (every kind except ``timing``, which sweeps it).
    n_tasksets:
        Task-sets per utilisation point (figure2/group2), corpus size
        (splitsweep/sensitivity/simulate) or samples per core count
        (timing); ``None`` resolves to the kind's default.
    seed:
        Root seed; every work item derives its own RNG from it.
    step:
        Utilisation grid step (figure2/group2; ``None`` scales with m).
    mu_method / rho_solver:
        LP-ILP solver selection (figure2 only).
    utilization:
        Corpus utilisation (splitsweep: default 1.75; sensitivity: 1.0;
        simulate: 2.0).
    thresholds:
        NPR-size caps, normalised to descending order (splitsweep).
    overhead:
        Per-preemption-point WCET inflation (splitsweep).
    core_counts:
        Core-count grid (timing; default ``(4, 8, 16)``).
    max_scale:
        Breakdown-search upper bound (sensitivity; default 8.0).
    horizon_factor:
        Simulated horizon as a multiple of the largest period
        (simulate; default 4.0).
    utilization_factor:
        Corpus utilisation as a fraction of each core count (timing;
        default 0.5).
    """

    kind: str
    m: int = 4
    n_tasksets: int | None = None
    seed: int = 2016
    step: float | None = None
    mu_method: str = "search"
    rho_solver: str = "assignment"
    utilization: float | None = None
    thresholds: tuple[float, ...] | None = None
    overhead: float = 0.0
    core_counts: tuple[int, ...] | None = None
    max_scale: float | None = None
    horizon_factor: float | None = None
    utilization_factor: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise JobSpecError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {WORKLOAD_KINDS}"
            )
        spec = kind_spec(self.kind)
        # Strictness: every field the kind's registration does not list
        # must stay at its dataclass default — a workload can never
        # *look* like it configures a knob its kind ignores.
        for name, default in _FIELD_DEFAULTS.items():
            if name in spec.keys:
                continue
            if getattr(self, name) != default:
                hint = spec.reject_hints.get(name, "")
                raise JobSpecError(
                    f"{self.kind} workloads take no {name!r}"
                    + (f" ({hint})" if hint else "")
                )
        # A value set in code obeys the job-file rules too, so every
        # constructible workload serialises to a file that loads back.
        for name, check in _KEY_CODERS.items():
            value = getattr(self, name)
            if value is not None or name not in _OPTIONAL_FIELDS:
                object.__setattr__(self, name, check(f"workload.{name}", value))
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            values = value if isinstance(value, (tuple, list)) else (value,)
            if value is not None and not all(math.isfinite(v) for v in values):
                raise JobSpecError(f"{name} must be finite, got {value}")
        if "m" in spec.keys and self.m < 1:
            raise JobSpecError(f"core count m must be >= 1, got {self.m}")
        if self.seed < 0:
            raise JobSpecError(f"seed must be >= 0, got {self.seed}")
        if self.n_tasksets is None:
            object.__setattr__(self, "n_tasksets", spec.default_tasksets)
        if self.n_tasksets < 1:
            raise JobSpecError(
                f"n_tasksets must be >= 1, got {self.n_tasksets}"
            )
        spec.validate(self)

    # ------------------------------------------------------------------
    def sweep_spec(self):
        """The engine sweep this workload denotes: a
        :class:`~repro.engine.sweep.SweepSpec` for figure2/group2, a
        :class:`~repro.engine.sweep.CorpusSweep` for the other kinds.

        Delegates to the experiments' own builders, so a job's
        fingerprint is *identical* to the sweep's run straight on the
        engine — the property the conformance suite pins.
        """
        return kind_spec(self.kind).sweep(self)

    def fingerprint(self) -> str:
        """The workload's sweep fingerprint (execution-independent)."""
        return self.sweep_spec().fingerprint()

    @property
    def total_items(self) -> int:
        """The full (unsharded) work-item count."""
        return self.sweep_spec().total_items

    @property
    def supports_cache(self) -> bool:
        """Whether the verdict cache applies to this kind."""
        return kind_spec(self.kind).supports_cache

    @property
    def merge_kind(self) -> str:
        """The shard-artifact ``kind`` tag this workload produces."""
        return kind_spec(self.kind).artifact_kind

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Only the keys applicable to the kind are emitted (and later
        accepted back), so a job file documents exactly its knobs."""
        payload: dict = {}
        for key in kind_spec(self.kind).keys:
            value = getattr(self, key)
            payload[key] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_json_dict(cls, payload: object) -> "Workload":
        if not isinstance(payload, Mapping):
            raise JobSpecError("'workload' must be a JSON object")
        kind = payload.get("kind")
        if kind not in WORKLOAD_KINDS:
            raise JobSpecError(
                f"unknown workload kind {kind!r}; expected one of "
                f"{WORKLOAD_KINDS}"
            )
        allowed = kind_spec(kind).keys
        unknown = sorted(set(payload) - set(allowed))
        if unknown:
            raise JobSpecError(
                f"workload key {unknown[0]!r} is not accepted by kind "
                f"{kind!r} (allowed: {', '.join(allowed)})"
            )
        kwargs: dict = {"kind": str(kind)}
        for key in allowed:
            if key != "kind" and key in payload:
                kwargs[key] = _KEY_CODERS[key](f"workload.{key}", payload[key])
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class ExecutionPolicy:
    """How one job invocation executes (all fields optional).

    Attributes
    ----------
    jobs:
        Worker count; 1 runs serially, more runs a process pool
        (results are identical either way — the engine's determinism
        contract).
    chunk_size:
        Pin the engine's work-items-per-task; ``None`` means one item
        per chunk serially and ``min(ceil(items / (8 × jobs)), 16)`` on
        a pool.
    checkpoint:
        JSON checkpoint path; a re-run of the same job resumes from it.
    stream:
        JSONL stream path (one line per completed work item).
    shard_out:
        Shard-artifact path written on completion.
    shard:
        Evaluate only this slice of the item space.
    items:
        Explicit work-item subset within the shard's slice (the
        orchestrator's elastic sub-shard dispatch).
    cache:
        Verdict-cache mode: ``"off"`` (default), ``"read"`` (hit the
        cache, never write) or ``"readwrite"``.  The grid sweeps key
        each item's row by its generation coordinates and a salt of
        the code that computes it (:mod:`repro.engine.vcache`), so the
        cache is policy, not workload — it never enters the sweep
        fingerprint and any mode produces bit-identical results.
    cache_dir:
        Verdict-cache directory; ``None`` means the default
        (``results/cache``) when the cache is on.
    publish:
        Publish the merged result into the durable result store
        (:mod:`repro.engine.store`) on completion.  Only whole-run
        invocations publish: a sharded or item-subset invocation is
        rejected, and the orchestrator publishes once after merging.
    store_dir:
        Result-store directory; ``None`` means the default
        (``results/store.db``) when publishing is on.
    """

    jobs: int = 1
    chunk_size: int | None = None
    checkpoint: str | None = None
    stream: str | None = None
    shard_out: str | None = None
    shard: ShardSpec | None = None
    items: tuple[int, ...] | None = None
    cache: str = "off"
    cache_dir: str | None = None
    publish: bool = False
    store_dir: str | None = None

    def __post_init__(self) -> None:
        # The job-file rules, applied to values set in code too.
        _json_int("execution.jobs", self.jobs)
        if self.chunk_size is not None:
            _json_int("execution.chunk_size", self.chunk_size)
        if self.shard is not None and not isinstance(self.shard, ShardSpec):
            raise JobSpecError(
                f"malformed execution.shard: expected a shard such as "
                f"'1/4', got {self.shard!r}"
            )
        _json_str("execution.cache", self.cache)
        _json_bool("execution.publish", self.publish)
        for name in _PATH_KEYS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _json_path(f"execution.{name}", value))
        if self.jobs < 1:
            raise JobSpecError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise JobSpecError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.cache not in CACHE_MODES:
            raise JobSpecError(
                f"unknown cache mode {self.cache!r}; "
                f"expected one of {CACHE_MODES}"
            )
        if self.items is not None:
            items = tuple(sorted(set(
                _json_list(_json_int)("execution.items", self.items)
            )))
            if not items:
                raise JobSpecError("items subset names no work items")
            if items[0] < 0:
                raise JobSpecError(
                    f"work-item indexes must be >= 0, got {items[0]}"
                )
            object.__setattr__(self, "items", items)

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "chunk_size": self.chunk_size,
            "checkpoint": self.checkpoint,
            "stream": self.stream,
            "shard_out": self.shard_out,
            "shard": self.shard.label if self.shard is not None else None,
            "items": list(self.items) if self.items is not None else None,
            "cache": self.cache,
            "cache_dir": self.cache_dir,
            "publish": self.publish,
            "store_dir": self.store_dir,
        }

    @classmethod
    def from_json_dict(cls, payload: object) -> "ExecutionPolicy":
        if not isinstance(payload, Mapping):
            raise JobSpecError("'execution' must be a JSON object")
        # Job files written before cache-aware placement was removed
        # carry "placement": "strided" (every --dry-run did); the
        # strided partition is the only one left, so the key is dropped.
        placement = payload.get("placement")
        if placement not in (None, "strided"):
            raise JobSpecError(
                f"execution.placement {placement!r} is not supported: "
                "cache-aware placement was removed and shards are always "
                "strided; drop the key"
            )
        # Likewise "executor": "process" (every job file written while
        # a thread pool existed carries it); a process pool is the only
        # pool left, so the key is dropped.
        executor = payload.get("executor")
        if executor not in (None, "process"):
            raise JobSpecError(
                f"execution.executor {executor!r} is not supported: the "
                "thread executor was removed and jobs > 1 always runs a "
                "process pool; drop the key"
            )
        unknown = sorted(
            set(payload) - {"placement", "executor", *_EXECUTION_KEYS}
        )
        if unknown:
            raise JobSpecError(
                f"unknown execution key {unknown[0]!r} "
                f"(allowed: {', '.join(_EXECUTION_KEYS)})"
            )
        # The constructor checks each value's type. ``null`` leaves a
        # field at its default, except ``jobs``; fields added since
        # version 1 (cache, publish, store_dir) may be absent.
        kwargs = {
            key: value for key, value in payload.items()
            if key in _EXECUTION_KEYS and (value is not None or key == "jobs")
        }
        if "shard" in kwargs:
            try:
                kwargs["shard"] = parse_shard(str(kwargs["shard"]))
            except ShardError as exc:
                raise JobSpecError(str(exc)) from exc
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One complete, serializable job: a workload plus how to run it."""

    workload: Workload
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        if self.execution.cache != "off" and not self.workload.supports_cache:
            raise JobSpecError(
                f"{self.workload.kind} workloads do not support "
                "execution.cache (the verdict cache keys the grid sweeps' "
                "items by their generation coordinates; this kind's items "
                "have none)"
            )
        if self.execution.publish and (
            self.execution.shard is not None
            or self.execution.items is not None
        ):
            raise JobSpecError(
                "execution.publish requires a whole-run invocation; a "
                "sharded or item-subset invocation cannot publish a "
                "complete row set (orchestrated runs publish once, after "
                "the merge)"
            )

    # Convenience passthroughs ----------------------------------------
    @property
    def kind(self) -> str:
        return self.workload.kind

    def fingerprint(self) -> str:
        return self.workload.fingerprint()

    @property
    def total_items(self) -> int:
        return self.workload.total_items

    # Serialisation ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "version": JOBSPEC_VERSION,
            "workload": self.workload.to_json_dict(),
            "execution": self.execution.to_json_dict(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, payload: object) -> "JobSpec":
        if not isinstance(payload, Mapping):
            raise JobSpecError("a job spec must be a JSON object")
        if payload.get("version") != JOBSPEC_VERSION:
            raise JobSpecError(
                f"job spec has format version {payload.get('version')!r}, "
                f"expected {JOBSPEC_VERSION}"
            )
        unknown = sorted(set(payload) - {"version", "workload", "execution"})
        if unknown:
            raise JobSpecError(
                f"unknown job spec key {unknown[0]!r} "
                "(allowed: version, workload, execution)"
            )
        if "workload" not in payload:
            raise JobSpecError("job spec has no 'workload' section")
        workload = Workload.from_json_dict(payload["workload"])
        execution = (
            ExecutionPolicy.from_json_dict(payload["execution"])
            if "execution" in payload
            else ExecutionPolicy()
        )
        return cls(workload=workload, execution=execution)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"job spec is not valid JSON ({exc})") from exc
        return cls.from_json_dict(payload)

    # Override layering ------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, object]) -> "JobSpec":
        """A new spec with dotted-key overrides applied.

        Keys are ``"workload.<field>"`` / ``"execution.<field>"``;
        a bare ``"<field>"`` resolves to whichever section owns it
        (field names never collide across the two sections).  String
        values are coerced to the field's type (``"none"`` clears an
        optional field), so CLI ``--set key=value`` pairs feed straight
        in; already-typed values pass through unchanged.
        """
        workload_kwargs: dict = {}
        execution_kwargs: dict = {}
        for dotted, value in overrides.items():
            section, _, name = dotted.rpartition(".")
            if not section:
                if name in _WORKLOAD_PARSERS:
                    section = "workload"
                elif name in _EXECUTION_PARSERS:
                    section = "execution"
                else:
                    raise JobSpecError(
                        f"override names no job spec field: {dotted!r}"
                    )
            if section == "workload":
                parsers, target = _WORKLOAD_PARSERS, workload_kwargs
            elif section == "execution":
                parsers, target = _EXECUTION_PARSERS, execution_kwargs
            else:
                raise JobSpecError(
                    f"override section must be 'workload' or 'execution', "
                    f"got {dotted!r}"
                )
            if name not in parsers:
                raise JobSpecError(
                    f"{section} has no field {name!r} "
                    f"(allowed: {', '.join(parsers)})"
                )
            if isinstance(value, str) and parsers[name] is not str:
                try:
                    value = parsers[name](value)
                except JobSpecError:
                    raise
                except ShardError as exc:
                    raise JobSpecError(str(exc)) from exc
                except (TypeError, ValueError) as exc:
                    raise JobSpecError(
                        f"malformed override {dotted}={value!r} ({exc})"
                    ) from exc
            target[name] = value
        workload = (
            replace(self.workload, **workload_kwargs)
            if workload_kwargs else self.workload
        )
        execution = (
            replace(self.execution, **execution_kwargs)
            if execution_kwargs else self.execution
        )
        return JobSpec(workload=workload, execution=execution)

    def for_worker(self) -> "JobSpec":
        """The spec an orchestrated shard invocation starts from.

        Per-shard placement (shard, artifact/stream/checkpoint paths,
        item subsets) is appended by the orchestrator as ``sweep-run``
        flag overrides, so the base worker spec must not carry any —
        two shards sharing one would clobber each other's files.
        """
        return JobSpec(
            workload=self.workload,
            execution=replace(
                self.execution,
                checkpoint=None, stream=None, shard_out=None,
                shard=None, items=None, publish=False, store_dir=None,
            ),
        )


def parse_set_override(text: str) -> tuple[str, str]:
    """Split one CLI ``--set key=value`` pair (value stays a string)."""
    key, sep, value = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise JobSpecError(
            f"malformed --set {text!r}; expected key=value, "
            "e.g. --set workload.m=8"
        )
    return key, value


def load_job(path: str | Path) -> JobSpec:
    """Read and validate a job file.

    Raises
    ------
    JobSpecError
        On a missing file, unreadable JSON, unknown keys or a
        format-version mismatch.
    """
    path = Path(path)
    if not path.exists():
        raise JobSpecError(f"job file {path} does not exist")
    try:
        return JobSpec.from_json(path.read_text())
    except JobSpecError as exc:
        raise JobSpecError(f"{path}: {exc}") from exc


def save_job(path: str | Path, job: JobSpec) -> Path:
    """Atomically write ``job`` as versioned JSON."""
    from repro.engine.checkpoint import write_json_atomic

    path = Path(path)
    write_json_atomic(path, job.to_json_dict())
    return path

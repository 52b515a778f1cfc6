"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch a single base class. Narrower subclasses signal which subsystem
rejected the input:

* :class:`ModelError` — malformed tasks, graphs or task-sets;
* :class:`GraphError` — graph-algorithm preconditions (cycles, unknown
  nodes, non-DAG inputs);
* :class:`AnalysisError` — response-time analysis misuse (bad core
  counts, unordered priorities);
* :class:`CheckpointError` / :class:`ShardError` — sweep-engine
  persistence problems (corrupt checkpoints, inconsistent shard sets);
* :class:`CacheError` — verdict-cache problems (unusable cache
  directory, corrupt or version-skewed entries);
* :class:`JobSpecError` — malformed declarative job descriptions
  (unknown keys, version skew, kind/policy mismatches);
* :class:`LintError` — repro-lint cannot run (bad config, unparseable
  input, malformed baseline);
* :class:`IlpError` / :class:`IlpInfeasibleError` — ILP substrate
  failures;
* :class:`GenerationError` — task-set generator parameter problems;
* :class:`SimulationError` — simulator misuse or invariant violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ModelError(ReproError):
    """A task, DAG or task-set violates the model's structural rules."""


class GraphError(ReproError):
    """A graph algorithm received input outside its preconditions."""


class CycleError(GraphError):
    """The input graph contains a directed cycle (it is not a DAG)."""


class AnalysisError(ReproError):
    """The response-time analysis was invoked with invalid parameters."""


class CheckpointError(AnalysisError):
    """A sweep checkpoint file is corrupt, truncated or incompatible.

    Subclasses :class:`AnalysisError` so pre-existing callers that catch
    the broader class keep working.
    """


class ShardError(AnalysisError):
    """A shard set is inconsistent: gaps, overlaps or mixed sweeps."""


class CacheError(AnalysisError):
    """The verdict cache is unusable or an entry is corrupt/version-skewed.

    Individual bad entries are swept (skipped and recomputed) by the
    cache itself, never silently trusted; this error surfaces when the
    cache cannot operate at all (bad mode, unusable directory, or a
    ``sweep-cache`` action on a directory that holds no cache).
    """


class JobSpecError(AnalysisError):
    """A declarative job description is malformed: an unknown workload
    kind or field, a format-version skew, an override naming no field,
    or an execution policy the workload kind does not support."""


class LintError(ReproError):
    """repro-lint cannot run: bad configuration, an unparseable input
    file, a malformed baseline, or an unknown rule code.  (Rule
    *findings* are results, not errors — they never raise.)"""


class IlpError(ReproError):
    """The ILP model is malformed (bad coefficients, unknown variables)."""


class IlpInfeasibleError(IlpError):
    """The ILP instance has no feasible assignment."""


class GenerationError(ReproError):
    """Task-set generation parameters are inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event simulator was misused or detected a bug."""

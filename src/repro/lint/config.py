"""Declarative configuration for repro-lint.

Configuration lives in a ``[tool.repro-lint]`` table, pyproject-style.
The loader looks for (first hit wins, or pass ``--config``):

1. ``pyproject.toml`` with a ``[tool.repro-lint]`` table;
2. ``repro-lint.toml`` with a ``[tool.repro-lint]`` table (or the same
   keys at top level).

The interesting part is the **role** map, the declarative half of the
module-classification layer: each role names the modules an invariant
applies to.  Role patterns are either ``fnmatch`` globs over dotted
module names (``repro.engine.*``) or ``imports:<module>`` — every
module whose import graph contains ``<module>`` gets the role.  Rules
are scoped to roles (``merge-paths``, ``artifact-writers``, …) so e.g.
the unordered-set rule only fires where iteration order can reach a
merged artifact or fingerprint.

::

    [tool.repro-lint]
    source-roots = ["src"]
    exclude = ["tests/lint_fixtures/*"]
    baseline = "lint-baseline.json"

    [tool.repro-lint.roles]
    merge-paths = ["repro.engine.shard", "repro.engine.results"]
    artifact-writers = ["imports:repro.engine.checkpoint"]

    [tool.repro-lint.rules.ERR001]
    allowed = ["AnalysisError", "ShardError"]
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import LintError

CONFIG_FILENAMES = ("pyproject.toml", "repro-lint.toml")

DEFAULT_SOURCE_ROOTS = ("src",)

#: Role map used when no config declares one (fixture tests supply
#: their own).  Documented in the README "Static analysis" section.
DEFAULT_ROLES: dict[str, tuple[str, ...]] = {
    # Modules where iteration order can reach a merged result, a
    # fingerprint, or any reduction that must be corpus-order stable.
    "merge-paths": (
        "repro.engine.shard",
        "repro.engine.results",
        "repro.engine.livemerge",
        "repro.engine.vcache",
        "repro.experiments.splitsweep",
    ),
    # Modules that publish artifacts/checkpoints/streams on disk.
    "artifact-writers": (
        "repro.engine.checkpoint",
        "repro.engine.shard",
        "repro.engine.streaming",
        "repro.engine.vcache",
        "repro.engine.orchestrator",
        "repro.experiments.reporting",
    ),
    # Writers of versioned on-disk formats; must reference the schema
    # version constants they stamp.
    "versioned-writers": (
        "repro.engine.checkpoint",
        "repro.engine.shard",
        "repro.engine.streaming",
        "repro.engine.vcache",
        "repro.engine.jobspec",
    ),
    # The typed-error contract (AnalysisError family) applies to the
    # public engine/core surface.
    "public-paths": (
        "repro.engine.*",
        "repro.core.*",
    ),
    # Sanctioned seed-derivation modules (DET002 exempt).
    "seed-paths": (),
    # Modules whose wall-clock reads are telemetry by construction;
    # empty on purpose, like seed-paths.
    "telemetry": (),
}


@dataclass(frozen=True)
class LintConfig:
    """Parsed ``[tool.repro-lint]`` table."""

    root: Path
    source_roots: tuple[str, ...] = DEFAULT_SOURCE_ROOTS
    exclude: tuple[str, ...] = ()
    baseline: str | None = None
    roles: dict[str, tuple[str, ...]] = field(default_factory=dict)
    rule_options: dict[str, dict[str, object]] = field(default_factory=dict)

    def rule_option(self, code: str, key: str, default: object) -> object:
        return self.rule_options.get(code, {}).get(key, default)


def _as_str_tuple(value: object, *, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintError(f"{where} must be a list of strings, got {value!r}")
    return tuple(value)


def parse_config(table: dict, root: Path) -> LintConfig:
    """Build a :class:`LintConfig` from a ``[tool.repro-lint]`` dict."""
    known = {"source-roots", "exclude", "baseline", "roles", "rules"}
    unknown = set(table) - known
    if unknown:
        raise LintError(
            f"unknown [tool.repro-lint] keys: {', '.join(sorted(unknown))}"
        )
    roles: dict[str, tuple[str, ...]] = dict(DEFAULT_ROLES)
    for role, patterns in table.get("roles", {}).items():
        roles[str(role)] = _as_str_tuple(patterns, where=f"roles.{role}")
    rule_options: dict[str, dict[str, object]] = {}
    rules_table = table.get("rules", {})
    if not isinstance(rules_table, dict):
        raise LintError("[tool.repro-lint.rules] must be a table")
    for code, options in rules_table.items():
        if not isinstance(options, dict):
            raise LintError(f"rules.{code} must be a table of options")
        rule_options[str(code)] = dict(options)
    baseline = table.get("baseline")
    if baseline is not None and not isinstance(baseline, str):
        raise LintError(f"baseline must be a string path, got {baseline!r}")
    return LintConfig(
        root=root,
        source_roots=(
            _as_str_tuple(table["source-roots"], where="source-roots")
            if "source-roots" in table
            else DEFAULT_SOURCE_ROOTS
        ),
        exclude=(
            _as_str_tuple(table["exclude"], where="exclude")
            if "exclude" in table
            else ()
        ),
        baseline=baseline,
        roles=roles,
        rule_options=rule_options,
    )


def _read_table(path: Path) -> dict | None:
    try:
        with path.open("rb") as handle:
            data = tomllib.load(handle)
    except OSError as exc:
        raise LintError(f"cannot read config {path}: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise LintError(f"malformed TOML in {path}: {exc}") from exc
    table = data.get("tool", {}).get("repro-lint")
    if table is None and path.name != "pyproject.toml":
        # A standalone repro-lint.toml may put the keys at top level.
        table = {k: v for k, v in data.items() if k != "tool"} or None
    return table


def load_config(
    root: str | Path = ".", explicit: str | Path | None = None
) -> LintConfig:
    """Locate and parse the config; defaults when no file declares one."""
    root = Path(root).resolve()
    if explicit is not None:
        explicit = Path(explicit)
        table = _read_table(explicit)
        if table is None:
            raise LintError(f"{explicit} has no [tool.repro-lint] table")
        return parse_config(table, root)
    for name in CONFIG_FILENAMES:
        candidate = root / name
        if candidate.is_file():
            table = _read_table(candidate)
            if table is not None:
                return parse_config(table, root)
    return LintConfig(root=root, roles=dict(DEFAULT_ROLES))

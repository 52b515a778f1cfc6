"""File collection, suppression comments, and the lint driver.

Suppression syntax (the only sanctioned way to silence a true positive
in place — always pair it with a justification comment):

* ``# repro-lint: disable=RULE[,RULE2]`` trailing a line suppresses
  those rules on that line;
* the same comment alone on a line suppresses the *next* line;
* ``# repro-lint: disable-file=RULE[,RULE2]`` anywhere suppresses the
  rules for the whole module.

The engine parses every collected file once, builds the import graph,
classifies each module into roles, runs every registered rule, and
drops suppressed findings before baseline matching.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import LintError
from repro.lint.classify import ImportGraph, ModuleClassifier, module_name_for
from repro.lint.config import LintConfig
from repro.lint.rules import iter_rules
from repro.lint.rules.base import Finding

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]*)"
)


@dataclass
class Suppressions:
    """Per-file suppression state parsed from comments."""

    file_wide: frozenset[str] = frozenset()
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_wide:
            return True
        return rule in self.by_line.get(line, frozenset())


def parse_suppressions(lines: list[str]) -> Suppressions:
    """Collect the suppressions of one source file, given as ``lines``.

    Only comment tokens are read: a marker inside a string literal is
    text, neither a suppression nor an error.
    """
    file_wide: set[str] = set()
    by_line: dict[int, set[str]] = {}
    source = io.StringIO("\n".join(lines) + "\n")
    for token in tokenize.generate_tokens(source.readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        lineno, column = token.start
        kind, codes_text = match.groups()
        codes = {c.strip() for c in codes_text.split(",") if c.strip()}
        if not codes:
            raise LintError(
                f"empty repro-lint {kind}= comment on line {lineno}"
            )
        if kind == "disable-file":
            file_wide |= codes
            continue
        by_line.setdefault(lineno, set()).update(codes)
        if not lines[lineno - 1][:column].strip():
            # A standalone suppression comment covers the next line.
            by_line.setdefault(lineno + 1, set()).update(codes)
    return Suppressions(
        file_wide=frozenset(file_wide),
        by_line={n: frozenset(c) for n, c in by_line.items()},
    )


class FileContext:
    """Everything a rule needs to know about one analysed file."""

    def __init__(
        self,
        path: Path,
        rel_path: str,
        module: str,
        source: str,
        tree: ast.Module,
        roles: frozenset[str],
        config: LintConfig,
        graph: ImportGraph,
    ) -> None:
        self.path = path
        self.rel_path = rel_path
        self.module = module
        self.lines = source.splitlines()
        self.tree = tree
        self.roles = roles
        self.config = config
        self.graph = graph
        self.suppressions = parse_suppressions(self.lines)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def rule_option(self, code: str, key: str, default: object) -> object:
        return self.config.rule_option(code, key, default)


def collect_files(config: LintConfig, paths: list[Path]) -> list[Path]:
    """Expand ``paths`` (files or directories) into lintable .py files."""
    collected: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            rel = _rel_path(resolved, config.root)
            if any(
                _match_exclude(rel, pattern) for pattern in config.exclude
            ):
                continue
            seen.add(resolved)
            collected.append(resolved)
    return collected


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _match_exclude(rel: str, pattern: str) -> bool:
    from fnmatch import fnmatchcase

    return fnmatchcase(rel, pattern) or rel.startswith(
        pattern.rstrip("/*") + "/"
    )


class LintEngine:
    """Parse, classify and check a set of files."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def run(self, paths: list[Path]) -> tuple[list[Finding], int]:
        """Lint ``paths``; ``(visible findings, suppressed count)``."""
        files = collect_files(self.config, paths)
        graph = ImportGraph()
        parsed: list[tuple[Path, str, str, str, ast.Module]] = []
        for path in files:
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError) as exc:
                raise LintError(f"cannot parse {path}: {exc}") from exc
            module = module_name_for(
                path, self.config.root, self.config.source_roots
            )
            graph.add_module(module, tree)
            parsed.append(
                (path, _rel_path(path, self.config.root), module, source, tree)
            )
        classifier = ModuleClassifier(self.config.roles, graph)
        findings: list[Finding] = []
        suppressed = 0
        for path, rel, module, source, tree in parsed:
            ctx = FileContext(
                path=path,
                rel_path=rel,
                module=module,
                source=source,
                tree=tree,
                roles=classifier.roles_for(module),
                config=self.config,
                graph=graph,
            )
            for rule in iter_rules():
                if not rule.applies_to(ctx):
                    continue
                for finding in rule.check(ctx):
                    if ctx.suppressions.is_suppressed(
                        finding.rule, finding.line
                    ):
                        suppressed += 1
                    else:
                        findings.append(finding)
        findings.sort()
        return findings, suppressed


def lint_paths(
    paths: list[str | Path], config: LintConfig
) -> tuple[list[Finding], int]:
    """Convenience wrapper: lint ``paths`` under ``config``."""
    return LintEngine(config).run([Path(p) for p in paths])

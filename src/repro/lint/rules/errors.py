"""Typed-error discipline rules.

The standing contract (ROADMAP): errors stay typed — everything the
engine/core surface raises is an :class:`~repro.exceptions.AnalysisError`
subclass so callers can catch one family, and nothing silently eats
the :class:`~repro.exceptions.CheckpointError` persistence family.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import Finding, Rule, dotted_name, register

#: The AnalysisError family plus the project base class; overridable
#: via ``[tool.repro-lint.rules.ERR001] allowed = [...]``.
DEFAULT_ALLOWED_RAISES = (
    "ReproError",
    "AnalysisError",
    "CheckpointError",
    "ShardError",
    "CacheError",
    "JobSpecError",
    "LintError",
    "NotImplementedError",
)


def _is_private_path(ctx, node: ast.AST) -> bool:
    """Inside a ``_name`` function or a ``_Name`` class (not public)."""
    current = ctx.parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if current.name.startswith("_") and not current.name.startswith(
                "__"
            ):
                return True
        if isinstance(current, ast.ClassDef) and current.name.startswith("_"):
            return True
        current = ctx.parent(current)
    return False


def _caught_locally(ctx, node: ast.Raise, exc_name: str) -> bool:
    """The enclosing ``try`` catches ``exc_name`` — raise-to-translate."""
    current = ctx.parent(node)
    child: ast.AST = node
    while current is not None:
        # Only the try *body* is protected; a raise inside a sibling
        # handler or the finally block escapes this try.
        if isinstance(current, ast.Try) and child in current.body:
            for handler in current.handlers:
                for caught in _handler_type_names(handler):
                    if caught == exc_name or caught in (
                        "Exception",
                        "BaseException",
                    ):
                        return True
        child = current
        current = ctx.parent(current)
    return False


def _handler_type_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return ["BaseException"]
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: list[str] = []
    for node in types:
        name = dotted_name(node)
        if name is not None:
            names.append(name.rsplit(".", maxsplit=1)[-1])
    return names


@register
class UntypedRaise(Rule):
    """ERR001: a public engine/core path raises outside the typed family.

    The engine/core API contract is "catch ``AnalysisError`` and you
    have caught everything this layer can raise".  A stray
    ``ValueError`` or ``KeyError`` escaping a public function breaks
    every caller that honours the contract — it surfaces as a traceback
    from the CLI or a shard run instead of a one-line, typed failure.

    Flags ``raise SomeType(...)`` on public paths (public function, no
    leading ``_`` on the function or its class) of modules carrying the
    ``public-paths`` role when ``SomeType`` is not in the allowed
    family (``allowed`` option).  Not flagged: bare re-raises,
    ``raise`` of a non-name expression, private helpers, and raises the
    enclosing ``try`` itself catches (the raise-to-translate idiom).

    **Comply** by raising the narrowest family member (or add a new
    typed subclass in ``repro/exceptions.py``).  Mapping-protocol
    lookups that deliberately mirror ``dict`` semantics with
    ``KeyError`` should carry an inline suppression stating so.
    """

    code = "ERR001"
    name = "untyped-raise"
    default_roles = ("public-paths",)

    def check(self, ctx) -> Iterator[Finding]:
        allowed = set(
            ctx.rule_option(self.code, "allowed", DEFAULT_ALLOWED_RAISES)
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            if name is None:
                continue  # raise failure[0] etc.: type unknowable here
            leaf = name.rsplit(".", maxsplit=1)[-1]
            if leaf in allowed:
                continue
            if _is_private_path(ctx, node):
                continue
            if _caught_locally(ctx, node, leaf):
                continue
            yield self.finding(
                ctx,
                node,
                f"public path raises {leaf}, outside the typed "
                "AnalysisError family; raise a family member or add a "
                "typed subclass",
            )


@register
class OverbroadExcept(Rule):
    """ERR002: a broad handler can swallow the CheckpointError family.

    ``except:`` / ``except Exception:`` / ``except BaseException:``
    without a re-raise absorbs :class:`CheckpointError`,
    :class:`ShardError` and the rest of the typed persistence family —
    a corrupt checkpoint then looks like "no checkpoint" and a sweep
    silently recomputes (or worse, merges) instead of surfacing the
    fault.

    Not flagged: handlers whose body re-raises (``raise`` anywhere in
    the handler), and narrow handlers (``except OSError`` …).

    **Comply** by catching the narrowest type the body actually
    handles.  Genuine process-boundary catch-alls (``__del__`` safety
    nets, worker harness edges that convert everything to an exit
    code) should carry an inline suppression naming the boundary.
    """

    code = "ERR002"
    name = "overbroad-except"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _handler_type_names(node)
            if not any(
                name in ("Exception", "BaseException") for name in names
            ):
                continue
            if any(
                isinstance(inner, ast.Raise) for inner in ast.walk(node)
            ):
                continue
            label = "bare except" if node.type is None else (
                f"except {' / '.join(names)}"
            )
            yield self.finding(
                ctx,
                node,
                f"{label} without re-raise can swallow the "
                "CheckpointError family; catch the narrowest type the "
                "body handles",
            )

"""Determinism rules: the bit-identical conformance invariant, statically.

Serial == parallel == sharded == orchestrated == daemon/elastic, bit
for bit, is the repo's core contract.  These rules catch the three
classic ways a diff silently breaks it — filesystem iteration order,
unseeded randomness, unordered-collection reduction — plus wall-clock
values leaking into content that must be reproducible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import (
    Finding,
    Rule,
    call_name,
    is_order_insensitive_use,
    register,
)

_DIR_METHODS = frozenset({"glob", "rglob", "iterdir"})
_DIR_FUNCTIONS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)


@register
class UnsortedDirectoryIteration(Rule):
    """DET001: directory listings are consumed in filesystem order.

    ``Path.glob`` / ``Path.rglob`` / ``Path.iterdir`` / ``os.listdir``
    / ``os.scandir`` / ``glob.glob`` return entries in whatever order
    the filesystem reports — which differs across machines, mounts and
    even repeated runs.  Any resume, merge or sweep that iterates such
    a listing raw can produce host-dependent results (the orchestrator's
    sub-shard reuse order was the first real catch).

    **Comply** by wrapping the call in ``sorted(...)``.  Consuming the
    listing order-insensitively (``len``, ``set``, ``max``, ``any``,
    ``sum`` …) also passes.  If order provably cannot matter (e.g. an
    unlink loop) prefer sorting anyway — it costs nothing and keeps the
    invariant checkable — or suppress with a justification comment.
    """

    code = "DET001"
    name = "unsorted-directory-iteration"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            is_dir_listing = name in _DIR_FUNCTIONS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _DIR_METHODS
                and name not in _DIR_FUNCTIONS
            )
            # Method form: anything.glob()/.rglob()/.iterdir() — the
            # attribute check covers Path objects without type info.
            if not is_dir_listing:
                continue
            if is_order_insensitive_use(ctx, node):
                continue
            label = name or node.func.attr  # type: ignore[union-attr]
            yield self.finding(
                ctx,
                node,
                f"directory listing {label}(...) consumed in filesystem "
                "order; wrap in sorted(...)",
            )


_LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
    }
)


@register
class UnseededRandomness(Rule):
    """DET002: randomness outside the seeded spawn-key derivation.

    Every random draw in this repo must descend from an explicit seed
    through spawn keys (``repro.rng.default_rng(seed, spawn_key=...)``,
    see ``engine/sweep.py``) so that serial, parallel and sharded runs
    see identical streams.  This rule flags randomness that cannot be
    replayed: any ``random.*`` stdlib call (process-global state), the
    legacy numpy global-state API (``np.random.seed`` /
    ``np.random.rand`` / ``np.random.shuffle`` …), and **argument-less**
    ``np.random.default_rng()`` / ``np.random.SeedSequence()`` (both
    pull OS entropy); tests and benchmarks still draw from numpy.

    **Comply** by deriving a generator from the run's seed:
    ``repro.rng.default_rng(seed, spawn_key=...)``, whose seed is a
    required argument.  Modules carrying the ``seed-paths`` role (the
    sanctioned derivation layer) are exempt.
    """

    code = "DET002"
    name = "unseeded-randomness"

    def applies_to(self, ctx) -> bool:
        return "seed-paths" not in ctx.roles

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            head, _, tail = name.partition(".")
            if head == "random" and tail:
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib {name}() uses process-global RNG state; "
                    "derive repro.rng.default_rng(seed, spawn_key=...) "
                    "from the run seed instead",
                )
                continue
            parts = name.split(".")
            if len(parts) >= 2 and parts[-2] == "random":
                leaf = parts[-1]
                if leaf in _LEGACY_NP_RANDOM:
                    yield self.finding(
                        ctx,
                        node,
                        f"legacy numpy global-state RNG {name}(); derive "
                        "repro.rng.default_rng(seed, spawn_key=...) from "
                        "the run seed",
                    )
                elif leaf in ("default_rng", "SeedSequence") and not (
                    node.args or node.keywords
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"bare {name}() seeds from OS entropy; use "
                        "repro.rng.default_rng(seed, spawn_key=...) with "
                        "the run seed",
                    )


def _is_set_expr(node: ast.AST, known_sets: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(node.func.value, known_sets)
    if isinstance(node, ast.Name):
        return node.id in known_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, known_sets) or _is_set_expr(
            node.right, known_sets
        )
    return False


@register
class UnorderedReduction(Rule):
    """DET003: merge/fingerprint paths iterate an unordered collection.

    Merging shards, fingerprinting task-sets and folding rows must be
    corpus-order deterministic — iterating a ``set`` / ``frozenset``
    (or materialising one with ``list(...)`` / ``tuple(...)`` /
    ``str.join``) makes the result depend on hash-iteration order,
    which varies across processes once non-int keys are involved.  The
    rule tracks names bound to set expressions inside each function and
    flags ``for`` loops, comprehensions and materialisations over them.

    Scoped to modules carrying the ``merge-paths`` role — elsewhere,
    set iteration feeding an order-insensitive reduction is idiomatic.

    **Comply** by iterating ``sorted(the_set)`` (any deterministic key)
    or keeping the data in an ordered structure to begin with.
    """

    code = "DET003"
    name = "unordered-reduction"
    default_roles = ("merge-paths",)

    def check(self, ctx) -> Iterator[Finding]:
        functions = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in functions:
            yield from self._check_scope(ctx, function)

    def _check_scope(self, ctx, function: ast.AST) -> Iterator[Finding]:
        known_sets: set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                if _is_set_expr(node.value, known_sets):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            known_sets.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_set_expr(node.value, known_sets) and isinstance(
                    node.target, ast.Name
                ):
                    known_sets.add(node.target.id)
        for node in ast.walk(function):
            if isinstance(node, ast.For):
                if _is_set_expr(node.iter, known_sets):
                    yield self._flag(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter, known_sets):
                        yield self._flag(ctx, comp.iter)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                is_join = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if (name in ("list", "tuple") or is_join) and node.args:
                    if _is_set_expr(node.args[0], known_sets):
                        yield self._flag(ctx, node.args[0])

    def _flag(self, ctx, node: ast.AST) -> Finding:
        return self.finding(
            ctx,
            node,
            "iteration over an unordered set in a merge/fingerprint path; "
            "iterate sorted(...) for a corpus-order-stable reduction",
        )


_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)


@register
class WallClockInArtifactPath(Rule):
    """DET004: wall-clock reads in artifact/fingerprint/merge modules.

    ``time.time()`` / ``datetime.now()`` values differ per run by
    construction.  In a module that writes artifacts, computes
    fingerprints or merges results, a wall-clock read is one assignment
    away from an artifact field or an RNG seed — and a re-run that
    should be bit-identical no longer is.  Telemetry (timings, ages,
    heartbeats) is the legitimate use and belongs to modules carrying
    the ``telemetry`` role, or behind an inline suppression explaining
    why the value can never reach persisted content.

    Scoped to ``artifact-writers`` + ``merge-paths`` modules;
    ``time.monotonic`` / ``time.perf_counter`` are always fine (and are
    the right tool for durations anyway).
    """

    code = "DET004"
    name = "wall-clock-in-artifact-path"
    default_roles = ("artifact-writers", "merge-paths")

    def applies_to(self, ctx) -> bool:
        if "telemetry" in ctx.roles:
            return False
        return super().applies_to(ctx)

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _WALLCLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock {name}() in an artifact/merge module; "
                    "keep wall-clock out of persisted content (telemetry "
                    "needs a justified suppression)",
                )

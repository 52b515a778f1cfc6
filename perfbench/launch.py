"""Run the repro CLI in this process exactly as ``python -m repro`` does,
observed from outside the package.

    python perfbench/launch.py REPORT.json [--trace] -- CLI-ARGS...

Before anything from ``repro`` is imported, a meta-path hook goes in
front of the import system.  When a hooked module finishes executing,
the named functions in it are replaced by wrappers, so every later
``from ... import`` binds the wrapper: each name is wrapped where its
callers look it up, and nothing under ``src/`` changes.

Without ``--trace`` only the sweep's per-item entry points are wrapped,
and all they record is the first call: the instant set-up ends.  With
``--trace`` every entry point in ``LAYERS`` is wrapped.  Spans (name,
start, end, parent) stay in memory; self time (a span minus its wrapped
children) and counts are derived from them after the CLI returns.

REPORT.json receives ``{"exit", "start_ns", "first_item_ns", "end_ns",
"modules", "trace"}``.  Times are CLOCK_MONOTONIC nanoseconds, the clock
the parent reads around spawn and exit.
"""

from __future__ import annotations

import os
import sys
import time

_now = time.monotonic_ns
START_NS = _now()

#: Where set-up ends: the first call into any of these.  Generation is
#: the first work of every item in both workload kinds; the private
#: per-item functions keep the mark in place if a later version stops
#: generating on some path (say, a cache replay keyed on coordinates).
FIRST_ITEM = (
    ("repro.generator.taskset_gen", "generate_taskset"),
    ("repro.engine.sweep", "_run_chunk"),
    ("repro.experiments.splitsweep", "_evaluate_split_item"),
)


def _tasksets(args, result, rec):
    rec.counts["generator.tasksets"] += 1
    rec.counts["generator.tasks"] += len(result)


def _analyses(args, result, rec):
    """Verdict provenance of analyzer results, in the paper's order:
    FP-ideal failed (LP methods pruned), or LP-max failed where FP-ideal
    passed (LP-ILP had to run)."""
    counts = rec.counts
    multis = result if isinstance(result, list) else [result]
    for multi in multis:
        verdicts = getattr(multi, "schedulable", None)
        counts["core.analyzer.tasksets"] += 1
        if not isinstance(verdicts, dict):
            # analyze_taskset: one method, LP-ILP in the split sweep.
            counts["core.analyzer.lp_ilp"] += multi.method == "LP-ILP"
            continue
        if verdicts.get("FP-ideal") is False:
            counts["core.analyzer.fp_pruned"] += 1
        elif verdicts.get("LP-max") is False and "LP-ILP" in verdicts:
            counts["core.analyzer.lp_ilp"] += 1


def _rta(args, result, rec):
    lanes = result if result and isinstance(result[0], list) else [result]
    rec.counts["core.rta.lanes"] += len(lanes)
    rec.counts["core.rta.iterations"] += sum(t.iterations for lane in lanes for t in lane)


def _cache_open(args, result, rec):
    rec.caches.append(args[0])


def _cache_get(args, result, rec):
    rec.counts["engine.vcache.misses" if result is None else "engine.vcache.hits"] += 1


def _chunk(args, result, rec):
    payload = args[0]
    rec.counts["engine.sweep.items"] += payload[2] - payload[1]


#: (span name, module, qualified name, counter(args, result, recorder)).
#: The span name's first
#: dotted parts are the layer (the module that owns the work); the
#: metric names in BENCHMARK.json are built from them.
LAYERS = (
    ("generator", "repro.generator.taskset_gen", "generate_taskset", _tasksets),
    ("generator", "repro.generator.utilization", "draw_task_utilization", None),
    ("graph.longest_path", "repro.graph.paths", "longest_path_length", None),
    ("core.analyzer", "repro.core.analyzer", "analyze_taskset_multi_batch", _analyses),
    ("core.analyzer", "repro.core.analyzer", "analyze_taskset_multi", _analyses),
    ("core.analyzer", "repro.core.analyzer", "analyze_taskset", _analyses),
    ("core.rta", "repro.core.rta", "response_time_bounds_batch", _rta),
    ("core.rta", "repro.core.rta", "response_time_bounds", _rta),
    ("core.blocking.lp_max", "repro.core.blocking", "lp_max_deltas", None),
    ("core.blocking.lp_ilp", "repro.core.blocking", "lp_ilp_deltas", None),
    ("core.workload.mu", "repro.core.workload", "mu_array_shared", None),
    ("core.workload.mu_compute", "repro.core.workload", "mu_array", None),
    ("core.scenarios.rho", "repro.core.scenarios", "rho_assignment", None),
    ("model.transforms.split", "repro.model.transforms", "with_split_nodes", None),
    ("model.transforms.split_set", "repro.experiments.splitsweep", "split_taskset", None),
    ("core.fingerprint", "repro.core.fingerprint", "taskset_fingerprint", None),
    ("engine.vcache.open", "repro.engine.vcache", "VerdictCache.__init__", _cache_open),
    ("engine.vcache.open", "repro.engine.vcache", "VerdictCache._ensure_index", None),
    ("engine.vcache.key", "repro.engine.vcache", "VerdictCache.key_for", None),
    ("engine.vcache.get", "repro.engine.vcache", "VerdictCache.get", _cache_get),
    ("engine.vcache.put", "repro.engine.vcache", "VerdictCache.put", None),
    ("engine.sweep", "repro.engine.sweep", "SweepEngine.run", None),
    ("engine.sweep.chunk", "repro.engine.sweep", "_run_chunk", _chunk),
    ("experiments.splitsweep", "repro.engine.session", "Session.run", None),
    ("experiments.reporting.csv", "repro.experiments.reporting", "write_csv", None),
    ("experiments.reporting.csv", "repro.experiments.reporting", "write_sweep_csv", None),
    ("experiments.reporting.csv", "repro.experiments.reporting",
     "write_split_sweep_csv", None),
)

class _Counts(dict):
    def __missing__(self, key):
        return 0


class Recorder:
    """Timestamps and spans of one run, kept in memory until exit."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.first_item_ns: int | None = None
        self.modules_at_first_item = 0
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = _Counts()
        #: Verdict-cache handles the run opened (for their health counters).
        self.caches: list = []
        #: id -> (original, label) of every wrapped function, to find
        #: callers that still hold an original after the run.
        self.originals: dict[int, tuple[object, str]] = {}

    def mark_first_item(self) -> None:
        if self.first_item_ns is None:
            self.first_item_ns = _now()
            self.modules_at_first_item = len(sys.modules)

    def first_item_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.mark_first_item()
            return fn(*args, **kwargs)

        return wrapper

    def span_wrapper(self, name: str, fn, counter, first_item: bool):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if first_item:
                self.mark_first_item()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, _now(), parent)
                stack.pop()
            if counter is not None:
                counter(args, result, self)
            return result

        return wrapper

    def patch(self, module) -> None:
        """Wrap this module's entries (called once it has executed)."""
        name = module.__name__
        first = {attr for mod, attr in FIRST_ITEM if mod == name}
        entries = [e for e in LAYERS if e[1] == name] if self.trace else []
        traced = set()
        for span, _, qualname, counter in entries:
            owner, attr = _resolve(module, qualname)
            if owner is None:
                continue
            fn = getattr(owner, attr)
            setattr(owner, attr, self.span_wrapper(
                span, fn, counter, qualname in first))
            traced.add(qualname)
            self._wrapped(fn, f"{name}.{qualname}")
        for attr in first - traced:
            if hasattr(module, attr):
                fn = getattr(module, attr)
                setattr(module, attr, self.first_item_wrapper(fn))
                self._wrapped(fn, f"{name}.{attr}")

    def _wrapped(self, fn, label: str) -> None:
        self.originals[id(fn)] = (fn, label)

    def unwrapped_bindings(self) -> list[str]:
        """Module globals in ``repro`` still bound to an original: a
        caller that bound the name before the wrapper existed."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                original = self.originals.get(id(value))
                if original is not None and original[0] is value:
                    found.append(f"{mod_name}.{attr}")
        return sorted(found)

    def report(self) -> dict:
        """Per-span-name self time and calls, plus counts."""
        if not self.trace:
            return {}
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name: dict[str, dict[str, int]] = {}
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            entry = per_name.setdefault(self.names[name_id], {"self_ns": 0, "calls": 0})
            entry["self_ns"] += end - start - child_ns[index]
            entry["calls"] += 1
        counts = dict(self.counts)
        # A mu_array_shared call that computed nothing was a memo hit.
        if "core.workload.mu" in self.names:
            shared = self.names.index("core.workload.mu")
            computed = {parent for _, _, _, parent in self.spans
                        if parent >= 0 and self.spans[parent][0] == shared}
            calls = sum(1 for span in self.spans if span[0] == shared)
            counts["core.workload.mu_memo_hits"] = calls - len(computed)
        counts["engine.vcache.swept"] = sum(c.swept for c in self.caches)
        counts["engine.vcache.stale"] = sum(c.stale for c in self.caches)
        expected = {f"{mod}.{qual}" for _, mod, qual, _ in LAYERS if mod in sys.modules}
        wrapped = {label for _, label in self.originals.values()}
        return {
            "spans": per_name,
            "counts": counts,
            "missing": sorted(expected - wrapped),
            "unwrapped": self.unwrapped_bindings(),
        }


def _resolve(module, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None, None
    return owner, attr


class PostImportHook:
    """Meta-path finder that lets the recorder patch a module right
    after it executes, before any importer can bind its names."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.targets = {mod for mod, _ in FIRST_ITEM}
        if recorder.trace:
            self.targets |= {mod for _, mod, _, _ in LAYERS}

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.targets:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader, recorder = spec.loader, self.recorder
        exec_module = loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            recorder.patch(module)

        loader.exec_module = exec_and_patch
        return spec


def main(argv: list[str]) -> int:
    report_path, rest = argv[0], argv[1:]
    trace = rest[:1] == ["--trace"]
    cli_args = rest[rest.index("--") + 1:]
    recorder = Recorder(trace)
    sys.meta_path.insert(0, PostImportHook(recorder))
    # ``python -m repro`` puts the working directory first on sys.path.
    sys.path[0] = os.getcwd()
    sys.argv = [sys.argv[0], *cli_args]
    code = 1
    try:
        from repro.cli import main as cli_main

        code = cli_main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        raise
    finally:
        end_ns = _now()
        import json

        with open(report_path, "w") as handle:
            json.dump({
                "exit": code,
                "start_ns": START_NS,
                "first_item_ns": recorder.first_item_ns,
                "end_ns": end_ns,
                "modules": recorder.modules_at_first_item,
                "trace": recorder.report(),
            }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-test of the benchmark at a tiny size (two task-sets per point).

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it checks that

* every end-to-end metric of BENCHMARK.json prints, with its unit, and a
  run whose outputs match the reference is correct with 0 failed;
* a corrupted reference digest counts as a failed sample;
* the traced run leaves the output byte-identical (the run is correct)
  and prints every per-layer metric of BENCHMARK.json, with its unit.

The reference digests are taken from the program itself at this size.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time
from pathlib import Path

import run

TINY = 2


def call(argv: list[str], workloads: dict, reference: dict) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads=workloads, reference=reference)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 else None


def units_match(result: dict | None, specs: list[dict]) -> list[str]:
    if result is None:
        return ["no result"]
    metrics = result["metrics"]
    wrong = [s["name"] for s in specs
             if metrics.get(s["name"], {}).get("unit") != s["unit"]]
    extra = sorted(set(metrics) - {s["name"] for s in specs})
    return [f"missing or wrong unit: {wrong}"] * bool(wrong) + \
        [f"not in BENCHMARK.json: {extra}"] * bool(extra)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    tiny = {name: dataclasses.replace(w, tasksets=TINY)
            for name, w in run.WORKLOADS.items()}
    run.TMP_ROOT.mkdir(exist_ok=True)
    problems: list[str] = []
    for name, w in tiny.items():
        sample = run.run_sample(w, run.DEFAULT_SEED, False, time.monotonic() + 120, {})
        if sample.error is not None:
            problems.append(f"{name}: {sample.error}")
            continue
        good = {name: {"tasksets": TINY, "digests": [sample.digest]}}
        bad = {name: {"tasksets": TINY, "digests": ["0" * 64]}}
        argv = ["--workload", name, "--seed", str(run.DEFAULT_SEED), "--seconds", "1"]

        _, result = call(argv + ["--trace", "0"], tiny, good)
        problems += [f"{name} end-to-end: {p}" for p in units_match(result, spec["end_to_end"])]
        if result and (not result["correct"] or result["failed"]):
            problems.append(f"{name}: a matching reference was not correct: {result}")

        _, result = call(argv + ["--trace", "0"], tiny, bad)
        if not result or result["correct"] or result["failed"] < 1:
            problems.append(f"{name}: a corrupted digest was not a failed sample: {result}")

        _, result = call(argv + ["--trace", "1"], tiny, good)
        problems += [f"{name} per-layer: {p}" for p in units_match(result, spec["per_layer"])]
        if result and (not result["correct"] or result["failed"]):
            problems.append(f"{name}: traced run changed the output or counts: {result}")
        print(f"{name}: checked", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest:", "ok" if not problems else f"{len(problems)} failures",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

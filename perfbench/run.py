"""End-to-end benchmark of the paper's schedulability sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh process that
does exactly what ``python -m repro ...`` does (through
``perfbench/launch.py``), serial (``--jobs 1``), one process at a time: a
closed loop with one client.  Each sample gets its own temporary
directory under ``.perfbench_tmp/`` for its CSV and verdict cache, so no
sample replays another's state.  Samples are launched until ``--seconds``
of measuring are spent; the metrics are medians over the samples.

Sample ``i`` of a run passes ``--seed SEED + i * SEED_STRIDE`` to the
program, so one run averages over several corpora and the run's figures
depend less on which corpus one seed happens to draw.

Times are scaled to the host's uncontended speed.  The host's vCPUs are
shared: each one, on its own, turns up to 1.8x slower for seconds to
minutes at a time, which moved raw medians by a third between runs of the
same code.  So every process is pinned to the vCPU that is fastest just
before it starts, and a thread pinned to that vCPU times a fixed slice of
interpreter work (``probe_work``) every ``PROBE_PERIOD_S`` while it runs.
A phase of the process (set-up, sweep) that took ``t`` seconds is
reported as ``t * PROBE_REF_NS / median(probe times in the phase)``: the
seconds it would have taken at the speed where the probe takes
``PROBE_REF_NS``.  The probe's mix of integer arithmetic, dict and list
churn and a sort slows with the host in proportion to the program's own
work (slope 0.98 against in-process generation plus analysis).  The raw
seconds are printed next to the scaled ones.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``items_per_s``, ``peak_rss_mb``).  ``--trace 1`` alternates untraced and
traced samples of one seed and prints the per-layer metrics: the traced
launcher wraps each layer's entry points and splits the run into self
times and counts; its output must be byte-identical to the untraced one.

Every sample's output is checked.  For the default seed its digest must
match ``reference.json``; for any seed the figure's invariants must hold
(LP-max <= LP-ILP <= FP-ideal at every point for figure2; thresholds,
utilisation and mean NPR count for the split sweep).  A non-zero exit or
a failed check counts as a failed sample.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

``python3 perfbench/run.py --record-reference`` rewrites ``reference.json``
from the current program.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"
REFERENCE = HERE / "reference.json"
TMP_ROOT = Path(".perfbench_tmp")

DEFAULT_SEED = 2016
SEED_STRIDE = 1_000_000
#: Digests recorded per workload for the default seed (samples 0..N-1).
REFERENCE_SAMPLES = 16
MIN_SAMPLES = 3
MIN_TRACE_ROUNDS = 2
#: Hard limit for one run, below the 180 s a run may take.
RUN_LIMIT_S = 165.0

#: The vCPUs the benchmark may use; each process is pinned to one of them.
CPUS = frozenset(os.sched_getaffinity(0))
#: One probe every 50 ms costs the measured process about 1.5% of its CPU.
PROBE_PERIOD_S = 0.05
#: ``probe_work``'s time beside a running sample on an uncontended vCPU of
#: the host the bounds were set on (Intel Xeon at 2.1 GHz, Python 3.11;
#: 0.6 ms alone, 0.78 ms after the sample's 50 ms slice has cooled the
#: caches): the speed times are scaled to.
PROBE_REF_NS = 780_000
#: A phase with fewer probes than this is scaled by the whole process's.
MIN_PHASE_PROBES = 5
#: Times each vCPU is probed before a process starts, to pick the fastest.
PICK_PROBES = 3
_PROBE_KEYS = tuple(range(0, 10_500, 7))

SPLIT_THRESHOLDS = (1000.0, 100.0, 50.0, 25.0, 10.0, 5.0)
SPLIT_UTILIZATION = 1.75


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI sweep and how to check its CSV."""

    name: str
    kind: str  # "figure2" | "splitsweep"
    m: int
    tasksets: int
    cache: str  # "off" | "read" (read: filled by the sample's own set-up)

    def argv(self, seed: int, tmp: Path, cache: str, out: Path) -> list[str]:
        if self.kind == "figure2":
            argv = ["figure2", "--m", str(self.m), "--tasksets", str(self.tasksets),
                    "--seed", str(seed), "--jobs", "1", "--csv", str(out),
                    "--cache", cache]
            if cache != "off":
                argv += ["--cache-dir", str(tmp / "cache")]
            return argv
        # The splitsweep subcommand has no --csv; sweep-run runs the same
        # job (six default thresholds) and writes the CSV.
        job = {"version": 1, "workload": {
            "kind": "splitsweep", "m": self.m, "n_tasksets": self.tasksets}}
        return ["sweep-run", "--job-json", json.dumps(job),
                "--set", f"workload.seed={seed}", "--jobs", "1", "--csv", str(out)]

    def items(self, rows: int) -> int:
        """Work items as the workload kind counts them (``total_items``)."""
        return rows * self.tasksets if self.kind == "figure2" else self.tasksets

    def check(self, text: str) -> str | None:
        """The figure's invariants on one output CSV; None when they hold."""
        rows = list(csv.DictReader(io.StringIO(text)))
        return (_check_figure2 if self.kind == "figure2" else _check_split)(self, rows)


def _is_ratio(value: float, n: int) -> bool:
    return 0.0 <= value <= 1.0 and abs(value * n - round(value * n)) < 1e-9


def _check_figure2(w: Workload, rows: list[dict]) -> str | None:
    expected = round((w.m - 1.0) / (w.m / 16.0)) + 1
    if len(rows) != expected:
        return f"{len(rows)} utilisation points, expected {expected}"
    previous = -math.inf
    for row in rows:
        u = float(row["utilization"])
        fp, ilp, lpmax = (float(row[k]) for k in ("FP-ideal", "LP-ILP", "LP-max"))
        if u <= previous:
            return f"utilisation grid not increasing at {u}"
        previous = u
        if not all(_is_ratio(r, w.tasksets) for r in (fp, ilp, lpmax)):
            return f"ratio not a count over {w.tasksets} task-sets at U={u}"
        if not lpmax <= ilp <= fp:
            return f"LP-max {lpmax} <= LP-ILP {ilp} <= FP-ideal {fp} fails at U={u}"
    return None


def _check_split(w: Workload, rows: list[dict]) -> str | None:
    thresholds = tuple(float(row["threshold"]) for row in rows)
    if thresholds != SPLIT_THRESHOLDS:
        return f"thresholds {thresholds}, expected {SPLIT_THRESHOLDS}"
    previous_q = -math.inf
    for row in rows:
        q, u, ratio = (float(row[k]) for k in ("mean_q", "mean_utilization", "ratio"))
        if not _is_ratio(ratio, w.tasksets):
            return f"ratio {ratio} not a count over {w.tasksets} task-sets"
        # Overhead-free splitting keeps every WCET sum, and a smaller cap
        # only splits more.
        if abs(u - SPLIT_UTILIZATION) > 1e-9:
            return f"mean utilisation {u} != {SPLIT_UTILIZATION}"
        if q < previous_q:
            return f"mean q falls from {previous_q} to {q} at threshold {row['threshold']}"
        previous_q = q
    return None


#: Why each workload is here: each stresses layers the others barely
#: touch, so a change to one layer moves one workload and not another.
WORKLOADS = {
    w.name: w
    for w in (
        # Figure 2(b): generation ~56%, batched analysis ~41%.
        Workload("figure2-m8", "figure2", 8, 30, "off"),
        # The same sweep served from a cache its set-up filled:
        # generation and cache keying, no analysis.
        Workload("figure2-m8-warm", "figure2", 8, 30, "read"),
        # Per-item LP-ILP: mu search and NPR splitting, ~no generation.
        Workload("splitsweep-m4", "splitsweep", 4, 20, "off"),
    )
}


# ----------------------------------------------------------------------
# Host speed
def probe_work() -> int:
    """A fixed slice of interpreter work, about 0.6 ms on an idle vCPU."""
    counts: dict[int, int] = {}
    pairs = []
    total = 0
    for k in _PROBE_KEYS:
        v = (k * 7919) % 10007
        counts[v % 613] = counts.get(v % 613, 0) + v
        pairs.append((v, k))
        total += k * k % 7
    pairs.sort()
    return total + len(counts) + pairs[0][0]


def time_probe() -> int:
    start = time.monotonic_ns()
    probe_work()
    return time.monotonic_ns() - start


def fastest_cpu() -> int:
    """The vCPU on which the probe runs fastest now (pins, then unpins,
    the calling thread)."""
    best: tuple[int, int] | None = None
    try:
        for cpu in sorted(CPUS):
            os.sched_setaffinity(0, {cpu})
            probe_ns = min(time_probe() for _ in range(PICK_PROBES))
            if best is None or probe_ns < best[0]:
                best = (probe_ns, cpu)
    finally:
        os.sched_setaffinity(0, CPUS)
    return best[1]


class SpeedProbe(threading.Thread):
    """Times ``probe_work`` on one vCPU every ``PROBE_PERIOD_S`` until
    stopped; ``samples`` holds (start_ns, duration_ns) pairs."""

    def __init__(self, cpu: int) -> None:
        super().__init__(name=f"speed-probe-{cpu}", daemon=True)
        self.cpu = cpu
        self.samples: list[tuple[int, int]] = []
        self._stopped = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stopped.wait(PROBE_PERIOD_S):
            start = time.monotonic_ns()
            probe_work()
            self.samples.append((start, time.monotonic_ns() - start))

    def stop(self) -> None:
        self._stopped.set()
        self.join()


# ----------------------------------------------------------------------
# One measured process
@dataclass
class Launch:
    exit: int
    spawn_ns: int
    exit_ns: int
    rss_kb: int
    probes: list[tuple[int, int]]
    report: dict = field(default_factory=dict)
    log: str = ""

    @property
    def wall_ns(self) -> int:
        return self.exit_ns - self.spawn_ns

    def speed(self, start_ns: int | None = None, end_ns: int | None = None) -> float:
        """Host speed over [start_ns, end_ns) as a factor that scales a
        raw time to the reference speed (below 1 when the host is slow)."""
        inside = [d for t, d in self.probes
                  if (start_ns is None or t >= start_ns) and (end_ns is None or t < end_ns)]
        if len(inside) < MIN_PHASE_PROBES:
            inside = [d for _, d in self.probes]
        return PROBE_REF_NS / median(inside) if inside else 1.0

    def scaled_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds from start_ns to end_ns at the reference host speed."""
        return (end_ns - start_ns) / 1e9 * self.speed(start_ns, end_ns)


def launch(argv: list[str], tmp: Path, tag: str, trace: bool, deadline: float) -> Launch:
    """Run one CLI invocation through the launcher, pinned to the fastest
    vCPU with a speed probe beside it; reap it with wait4 so its own
    rusage (peak RSS) is read, not the largest child's."""
    report_path = tmp / f"{tag}.report.json"
    log_path = tmp / f"{tag}.log"
    cmd = [sys.executable, str(LAUNCHER), str(report_path),
           *(["--trace"] if trace else []), "--", *argv]
    env = dict(os.environ, PYTHONPATH="src")
    probe = SpeedProbe(fastest_cpu())
    probe.start()
    try:
        # The child inherits the spawning thread's affinity.
        os.sched_setaffinity(0, {probe.cpu})
        try:
            with open(log_path, "wb") as log:
                spawn_ns = time.monotonic_ns()
                proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        finally:
            os.sched_setaffinity(0, CPUS)
        lock = threading.Lock()
        reaped = False

        def expire() -> None:
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), expire)
        timer.start()
        try:
            # Wait without reaping, so the pid cannot be reused under the timer.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exit_ns = time.monotonic_ns()
        except BaseException:
            expire()
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        probe.stop()
    result = Launch(proc.returncode, spawn_ns, exit_ns, usage.ru_maxrss, probe.samples)
    if report_path.exists():
        result.report = json.loads(report_path.read_text())
    if result.exit != 0:
        result.log = log_path.read_text(errors="replace")[-1500:]
    return result


# ----------------------------------------------------------------------
# One sample: a fresh process (plus, for a warm workload, the process
# that fills its fresh cache)
@dataclass
class Sample:
    seed: int
    error: str | None = None
    digest: str = ""
    measured: Launch | None = None
    fill: Launch | None = None
    items: int = 0
    cache_bytes: int = 0

    @property
    def first_item_ns(self) -> int:
        return self.measured.report["first_item_ns"]

    def end_to_end(self) -> dict[str, float]:
        """The sample's end-to-end metrics, times at the reference speed."""
        run, fill = self.measured, self.fill
        setup = run.scaled_s(run.spawn_ns, self.first_item_ns)
        sweep = run.scaled_s(self.first_item_ns, run.exit_ns)
        fill_s = fill.scaled_s(fill.spawn_ns, fill.exit_ns) if fill is not None else 0.0
        return {
            "wall_s": setup + sweep,
            "setup_s": setup + fill_s,
            "items_per_s": self.items / sweep,
            "peak_rss_mb": run.rss_kb / 1024,
        }


def run_sample(w: Workload, seed: int, trace: bool, deadline: float,
               reference: dict) -> Sample:
    sample = Sample(seed)
    tmp = Path(tempfile.mkdtemp(prefix="sample-", dir=TMP_ROOT))
    try:
        if w.cache == "read":
            fill_csv = tmp / "fill.csv"
            sample.fill = launch(w.argv(seed, tmp, "readwrite", fill_csv), tmp,
                                 "fill", trace, deadline)
            if sample.fill.exit != 0:
                sample.error = f"cache fill exited {sample.fill.exit}: {sample.fill.log}"
                return sample
            sample.cache_bytes = sum(
                p.stat().st_size for p in sorted((tmp / "cache").iterdir()))
        out = tmp / "out.csv"
        sample.measured = launch(w.argv(seed, tmp, w.cache, out), tmp, "run", trace,
                                 deadline)
        sample.error = _verify(w, sample, out, reference)
        if w.cache == "read" and sample.error is None:
            if fill_csv.read_bytes() != out.read_bytes():
                sample.error = "warm output differs from the run that filled the cache"
        return sample
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _verify(w: Workload, sample: Sample, out: Path, reference: dict) -> str | None:
    run = sample.measured
    if run.exit != 0:
        return f"exited {run.exit}: {run.log}"
    if not out.exists():
        return "no output CSV"
    if run.report.get("first_item_ns") is None:
        return "no work item observed (per-item entry points not found)"
    text = out.read_text()
    sample.digest = hashlib.sha256(text.encode()).hexdigest()
    expected = reference.get(w.name, {})
    digests = expected.get("digests", [])
    index, offset = divmod(sample.seed - DEFAULT_SEED, SEED_STRIDE)
    if (offset == 0 and 0 <= index < len(digests)
            and expected.get("tasksets") == w.tasksets
            and digests[index] != sample.digest):
        return f"output digest {sample.digest[:12]} != reference {digests[index][:12]}"
    problem = w.check(text)
    if problem:
        return f"output check: {problem}"
    sample.items = w.items(text.count("\n") - 1)
    return None


# ----------------------------------------------------------------------
# Per-layer metrics of a traced sample
def _self_s(*names):
    return lambda r: sum(r["trace"]["spans"].get(n, {}).get("self_ns", 0)
                         for n in names) / 1e9


def _calls(name):
    return lambda r: r["trace"]["spans"].get(name, {}).get("calls", 0)


def _count(name):
    return lambda r: r["trace"]["counts"].get(name, 0)


def _ratio(num, den):
    return lambda r: num(r) / den(r) if den(r) else 0.0


#: (metric, unit, value from the measured process's launch report).
#: Times are medians over the traced samples; everything else must
#: repeat exactly.
LAYER_METRICS = (
    # Set-up in the process: imports and argument and job parsing.
    ("cli.import_s", "s", lambda r: (r["first_item_ns"] - r["start_ns"]) / 1e9),
    ("cli.modules", "count", lambda r: r["modules"]),
    ("generator.self_s", "s", _self_s("generator")),
    ("generator.tasksets", "count", _count("generator.tasksets")),
    ("generator.tasks", "count", _count("generator.tasks")),
    ("graph.longest_path_s", "s", _self_s("graph.longest_path")),
    ("graph.longest_path_calls", "count", _calls("graph.longest_path")),
    ("core.analyzer.self_s", "s", _self_s("core.analyzer")),
    ("core.analyzer.tasksets", "count", _count("core.analyzer.tasksets")),
    ("core.analyzer.fp_pruned", "count", _count("core.analyzer.fp_pruned")),
    ("core.analyzer.lp_ilp_share", "ratio",
     _ratio(_count("core.analyzer.lp_ilp"), _count("core.analyzer.tasksets"))),
    ("core.rta.self_s", "s", _self_s("core.rta")),
    ("core.rta.calls", "count", _calls("core.rta")),
    ("core.rta.lanes_per_call", "lanes/call",
     _ratio(_count("core.rta.lanes"), _calls("core.rta"))),
    ("core.rta.iterations", "count", _count("core.rta.iterations")),
    ("core.blocking.lp_max_s", "s", _self_s("core.blocking.lp_max")),
    ("core.blocking.lp_ilp_s", "s", _self_s("core.blocking.lp_ilp")),
    ("core.blocking.lp_ilp_calls", "count", _calls("core.blocking.lp_ilp")),
    ("core.workload.mu_s", "s", _self_s("core.workload.mu", "core.workload.mu_compute")),
    ("core.workload.mu_calls", "count", _calls("core.workload.mu")),
    ("core.workload.mu_memo_hit_ratio", "ratio",
     _ratio(_count("core.workload.mu_memo_hits"), _calls("core.workload.mu"))),
    ("core.scenarios.rho_s", "s", _self_s("core.scenarios.rho")),
    ("core.scenarios.rho_calls", "count", _calls("core.scenarios.rho")),
    ("model.transforms.split_s", "s",
     _self_s("model.transforms.split", "model.transforms.split_set")),
    ("model.transforms.split_calls", "count", _calls("model.transforms.split")),
    ("core.fingerprint.self_s", "s", _self_s("core.fingerprint")),
    ("engine.vcache.key_s", "s", _self_s("engine.vcache.key")),
    ("engine.vcache.get_s", "s", _self_s("engine.vcache.get")),
    ("engine.vcache.open_s", "s", _self_s("engine.vcache.open")),
    ("engine.vcache.hits", "count", _count("engine.vcache.hits")),
    ("engine.vcache.misses", "count", _count("engine.vcache.misses")),
    ("engine.vcache.hit_ratio", "ratio",
     _ratio(_count("engine.vcache.hits"),
            lambda r: _count("engine.vcache.hits")(r) + _count("engine.vcache.misses")(r))),
    ("engine.vcache.swept", "count", _count("engine.vcache.swept")),
    ("engine.vcache.stale", "count", _count("engine.vcache.stale")),
    ("engine.sweep.self_s", "s", _self_s("engine.sweep", "engine.sweep.chunk")),
    ("engine.sweep.chunks", "count", _calls("engine.sweep.chunk")),
    ("engine.sweep.items_per_chunk", "items/chunk",
     _ratio(_count("engine.sweep.items"), _calls("engine.sweep.chunk"))),
    ("experiments.splitsweep.self_s", "s", _self_s("experiments.splitsweep")),
    ("experiments.reporting.csv_s", "s", _self_s("experiments.reporting.csv")),
)


def layer_of(span: str) -> str:
    """The module a span's work belongs to (its metric prefix)."""
    parts = span.split(".")
    return ".".join(parts[:2]) if parts[0] in ("core", "engine", "model", "experiments") \
        else parts[0]


# ----------------------------------------------------------------------
def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def context() -> list[str]:
    """Recorded with every report, never gated."""
    lines = 0
    for path in sorted(Path("src/repro").rglob("*.py")):
        lines += sum(1 for line in path.read_text().splitlines() if line.strip())
    versions = []
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist} {importlib.metadata.version(dist)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{dist} absent")
    return [
        f"src/repro non-blank lines: {lines}",
        f"python {platform.python_version()}, {', '.join(versions)}, "
        f"nproc {len(os.sched_getaffinity(0))}",
    ]


def _print_sample(s: Sample, label: str = "sample") -> None:
    if s.error is None:
        e = s.end_to_end()
        print(f"  {label} seed={s.seed}: wall {e['wall_s']:.4f} s "
              f"(raw {s.measured.wall_ns / 1e9:.4f} s, host speed "
              f"{s.measured.speed():.3f}), setup {e['setup_s']:.4f} s, "
              f"{e['items_per_s']:.4f} items/s, {e['peak_rss_mb']:.1f} MB")


def measure(w: Workload, seed: int, seconds: float, reference: dict,
            run_deadline: float) -> tuple[list[Sample], dict]:
    """Closed loop: one sample after another until the window is spent."""
    samples: list[Sample] = []
    durations: list[float] = []
    begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - begin
        estimate = median(durations) if durations else 0.0
        if len(samples) >= MIN_SAMPLES and elapsed + estimate / 2 > seconds:
            break
        if time.monotonic() + estimate > run_deadline and samples:
            break
        started = time.monotonic()
        samples.append(run_sample(w, seed + len(samples) * SEED_STRIDE, False,
                                  run_deadline, reference))
        durations.append(time.monotonic() - started)
    for s in samples:
        _print_sample(s)
    good = [s.end_to_end() for s in samples if s.error is None]
    units = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    metrics = {}
    for name, unit in units.items():
        values = [g[name] for g in good]
        if values:
            lo, hi = _quartiles(values)
            metrics[name] = {"value": median(values), "unit": unit}
            print(f"  {name:<12} median {median(values):12.4f} {unit:<3}  "
                  f"quartiles [{lo:.4f}, {hi:.4f}]  n={len(values)}")
    return samples, metrics


def _run_s(s: Sample) -> float:
    return s.measured.scaled_s(s.measured.spawn_ns, s.measured.report["end_ns"])


def measure_traced(w: Workload, seed: int, seconds: float, reference: dict,
                   run_deadline: float) -> tuple[list[Sample], dict, list[str]]:
    """Untraced and traced samples of one seed, alternating."""
    plain: list[Sample] = []
    traced: list[Sample] = []
    begin = time.monotonic()
    round_s: list[float] = []
    while True:
        elapsed = time.monotonic() - begin
        estimate = median(round_s) if round_s else 0.0
        if len(traced) >= MIN_TRACE_ROUNDS and elapsed + estimate / 2 > seconds:
            break
        if time.monotonic() + estimate > run_deadline and traced:
            break
        started = time.monotonic()
        plain.append(run_sample(w, seed, False, run_deadline, reference))
        traced.append(run_sample(w, seed, True, run_deadline, reference))
        round_s.append(time.monotonic() - started)
    for s, t in zip(plain, traced):
        _print_sample(s, "untraced")
        _print_sample(t, "traced")
    problems = []
    digests = {s.digest for s in plain + traced if s.error is None}
    if len(digests) > 1:
        problems.append("traced and untraced outputs differ")
    ok = [s for s in traced if s.error is None]
    if not ok:
        return plain + traced, {}, problems
    reports = [s.measured.report for s in ok]
    traces = [r["trace"] for r in reports]
    missing = sorted({name for t in traces for name in t["missing"]})
    unwrapped = sorted({name for t in traces for name in t["unwrapped"]})
    if missing or unwrapped:
        print(f"  trace: entry points not found {missing}, "
              f"callers holding unwrapped originals {unwrapped}")
    # Layer times are scaled by their process's host speed, like wall_s.
    speeds = [s.measured.speed() for s in ok]
    values: dict[str, list[float]] = {}
    for r, speed in zip(reports, speeds):
        for name, unit, fn in LAYER_METRICS:
            values.setdefault(name, []).append(fn(r) * speed if unit == "s" else fn(r))
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        series = values[name]
        if unit == "s":
            metrics[name] = {"value": median(series), "unit": unit}
            continue
        if len(set(series)) > 1:
            problems.append(f"{name} differs between traced runs of one seed: {series}")
        metrics[name] = {"value": series[0], "unit": unit}
    # The cache's write side runs in the set-up process that fills it.
    fills = [s.fill for s in ok if s.fill is not None]
    put_s = [_self_s("engine.vcache.put")(f.report) * f.speed() for f in fills] or [0.0]
    metrics["engine.vcache.put_s"] = {"value": median(put_s), "unit": "s"}
    metrics["engine.vcache.bytes"] = {"value": ok[0].cache_bytes, "unit": "B"}
    if len({s.cache_bytes for s in ok}) > 1:
        problems.append("engine.vcache.bytes differs between traced runs of one seed")
    # Spawn to the CLI's return: the launcher's own exit work is left out.
    base = [_run_s(s) for s in plain if s.error is None]
    overhead = median([_run_s(s) for s in ok]) / median(base) - 1 if base else 0.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}

    spans = {}
    for name in traces[0]["spans"]:
        spans[name] = median([t["spans"].get(name, {}).get("self_ns", 0) * speed
                              for t, speed in zip(traces, speeds)])
    by_layer: dict[str, float] = {}
    for name, self_ns in spans.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0) + self_ns
    total = sum(by_layer.values()) or 1
    print(f"  layer self time (median of {len(ok)} traced runs, "
          f"overhead {100 * overhead:+.1f}% vs {len(base)} untraced):")
    for layer, self_ns in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<24} {self_ns / 1e9:9.4f} s  {100 * self_ns / total:5.1f}%")
    return plain + traced, metrics, problems


def main(argv: list[str] | None = None, workloads: dict | None = None,
         reference: dict | None = None) -> int:
    # A terminated run still kills and reaps its sample (see launch).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    workloads = workloads if workloads is not None else WORKLOADS
    if not Path("src/repro/cli.py").is_file():
        print("perfbench: run from the root of a repro checkout (no src/repro)",
              file=sys.stderr)
        return 2
    if reference is None:
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    TMP_ROOT.mkdir(exist_ok=True)
    run_deadline = time.monotonic() + RUN_LIMIT_S
    if args.record_reference:
        return record_reference(workloads)
    if args.workload is None:
        parser.error("--workload is required")
    w = workloads[args.workload]

    # Set-up of the benchmark itself: one tiny run of the same command
    # compiles bytecode and warms the page cache, and fails fast on a
    # tree that cannot run at all.
    warm = run_sample(replace(w, tasksets=1), args.seed, False, run_deadline, {})
    if warm.error is not None:
        print(f"perfbench: warm-up run failed: {warm.error}", file=sys.stderr)
        return 1

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in context():
        print(f"  {line}")
    if args.trace:
        samples, metrics, problems = measure_traced(
            w, args.seed, args.seconds, reference, run_deadline)
    else:
        samples, metrics = measure(w, args.seed, args.seconds, reference, run_deadline)
        problems = []
    failed = [s for s in samples if s.error is not None]
    for s in failed:
        print(f"  FAILED sample seed={s.seed}: {s.error}", file=sys.stderr)
    for problem in problems:
        print(f"  FAILED check: {problem}", file=sys.stderr)
    if len(failed) == len(samples):
        print("perfbench: every sample failed", file=sys.stderr)
        return 1
    print(f"  samples: {len(samples) - len(failed)} passed, {len(failed)} failed")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def record_reference(workloads: dict) -> int:
    """Digest the outputs of the default seed's first samples."""
    reference = {}
    for w in workloads.values():
        digests = []
        for i in range(REFERENCE_SAMPLES):
            sample = run_sample(w, DEFAULT_SEED + i * SEED_STRIDE, False,
                                time.monotonic() + RUN_LIMIT_S, {})
            if sample.error is not None:
                print(f"{w.name}: {sample.error}", file=sys.stderr)
                return 1
            digests.append(sample.digest)
        reference[w.name] = {"seed": DEFAULT_SEED, "seed_stride": SEED_STRIDE,
                             "tasksets": w.tasksets, "digests": digests}
        print(f"{w.name}: {len(digests)} digests")
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <experiment> [options]``.

Sub-commands map one-to-one onto the paper's artefacts:

* ``figure1`` — the worked example (Tables I–III and the Δ terms);
* ``figure2`` — a schedulability sweep (choose ``--m 4|8|16``);
* ``group2``  — the uniform-parallelism sweep (LP-max ≈ LP-ILP);
* ``splitsweep`` — schedulability vs preemption-point granularity;
* ``timing``  — analysis runtime vs core count;
* ``demo``    — generate one task-set, analyse and simulate it;
* ``breakdown`` — breakdown utilisation of random task-sets;
* ``sweep-run`` — execute a *declarative job*: a versioned JSON
  :class:`~repro.engine.jobspec.JobSpec` (``--job job.json`` or
  ``--job-json '<spec>'``) naming the workload kind and its parameters
  plus the execution policy.  ``--set key=value`` and the engine flags
  layer overrides on top, and the orchestration flags (``--workers`` /
  ``--backend`` / ``--elastic`` ...) run the same job as a whole
  sharded orchestration — shards dispatched to local workers, SSH/queue
  templates or persistent worker daemons, live-merged, retried and
  validated — instead of a single inline invocation;
* ``sweep-merge`` — recombine ``--shard I/N`` artifacts into the exact
  unsharded result;
* ``sweep-status`` — inspect a running or finished orchestration
  directory from its streams and artifacts;
* ``sweep-daemon`` — serve shard work orders from a local socket with
  the repro stack imported once;
* ``sweep-cache`` — verdict-cache lifecycle (``stats``, ``compact``,
  ``gc``), safe while sweeps read and write the same directory;
* ``sweep-db`` — the durable result store: ``publish`` shard
  artifacts, list ``runs``, ``query`` rows, ``validate`` completeness
  and drift, ``export-csv`` bit-identically to the CSV writers.

``figure2``, ``group2`` and ``splitsweep`` are aliases of ``sweep-run``:
their few workload flags build the job, and every execution,
orchestration and output flag of ``sweep-run`` applies unchanged
(``--jobs``, ``--shard``, ``--stream``, ``--checkpoint``, ``--cache``,
``--workers``, ``--csv``, ``--dry-run`` ...).  One handler runs every
sweep, so flags, errors and output are the same whichever way a job
starts.
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError, ShardError

def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Response-Time Analysis of DAG Tasks under "
            "Fixed Priority Scheduling with Limited Preemptions' (DATE 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p1 = sub.add_parser("figure1", help="worked example: Tables I-III and deltas")
    p1.set_defaults(handler=_cmd_figure1)

    for kind, text in (
        ("figure2", "schedulability sweep (Figure 2)"),
        ("group2", "uniform-parallelism sweep (LP-max ~ LP-ILP)"),
        ("splitsweep", "schedulability vs preemption-point granularity "
                       "(NPR splitting)"),
    ):
        alias = sub.add_parser(
            kind, help=f"{text}; takes every sweep-run flag",
            description=f"{text}.  An alias of 'sweep-run': the workload "
                        "flags build the job, the rest are sweep-run's.",
        )
        _add_workload_args(alias, kind)
        _add_run_args(alias)
        alias.set_defaults(handler=_cmd_sweep_run, kind=kind)

    p4 = sub.add_parser("timing", help="analysis runtime vs core count")
    p4.add_argument("--m", type=int, nargs="+", default=[4, 8, 16])
    p4.add_argument("--samples", type=int, default=20)
    p4.add_argument("--seed", type=int, default=2016)
    p4.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (keep 1 for clean per-sample wall-clock)",
    )
    p4.set_defaults(handler=_cmd_timing)

    p5 = sub.add_parser("demo", help="generate, analyse and simulate one task-set")
    p5.add_argument("--m", type=int, default=4)
    p5.add_argument("--utilization", type=float, default=2.0)
    p5.add_argument("--seed", type=_seed_arg, default=1)
    p5.add_argument("--group", type=int, choices=(1, 2), default=1)
    p5.set_defaults(handler=_cmd_demo)

    p6 = sub.add_parser(
        "breakdown", help="breakdown utilisation of a random task-set per method"
    )
    p6.add_argument("--m", type=int, default=4)
    p6.add_argument("--utilization", type=float, default=1.0)
    p6.add_argument("--seed", type=_seed_arg, default=1)
    p6.add_argument("--samples", type=int, default=5)
    p6.set_defaults(handler=_cmd_breakdown)

    p8 = sub.add_parser(
        "sweep-merge",
        help="recombine --shard artifacts into the exact unsharded result",
    )
    p8.add_argument(
        "shards", nargs="+", metavar="SHARD.json",
        help="shard artifacts written by --shard-out (all shards of one sweep)",
    )
    p8.add_argument("--csv", type=str, default=None, help="write series to CSV")
    p8.add_argument("--chart", action="store_true", help="print an ASCII chart")
    p8.set_defaults(handler=_cmd_sweep_merge)

    p10 = sub.add_parser(
        "sweep-status",
        help="inspect a running or finished orchestration directory",
    )
    p10.add_argument("out_dir", metavar="DIR", help="orchestration directory")
    p10.set_defaults(handler=_cmd_sweep_status)

    p11 = sub.add_parser(
        "sweep-daemon",
        help="serve shard work orders from a local socket (imports the "
             "repro stack once; forked shards skip the per-launch "
             "interpreter + import cost)",
    )
    p11.add_argument(
        "--socket", type=str, required=True, metavar="SOCK",
        help="AF_UNIX socket path to listen on (keep it short, e.g. "
             "/tmp/repro-worker-1.sock)",
    )
    p11.add_argument(
        "--capacity", type=int, default=1, metavar="N",
        help="concurrent shard children this daemon hosts",
    )
    p11.set_defaults(handler=_cmd_sweep_daemon)

    p12 = sub.add_parser(
        "sweep-run",
        help="execute a declarative JobSpec (JSON job file) — inline by "
             "default, or as a whole orchestrated sweep with the "
             "orchestration flags",
    )
    source = p12.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--job", type=str, default=None, metavar="FILE",
        help="JSON job file (see README 'Declarative jobs')",
    )
    source.add_argument(
        "--job-json", type=str, default=None, metavar="JSON",
        help="the JobSpec JSON inline (how orchestrators and daemons "
             "embed the job verbatim in work orders)",
    )
    _add_run_args(p12)
    p12.set_defaults(handler=_cmd_sweep_run, kind=None)

    p13 = sub.add_parser(
        "sweep-cache",
        help="inspect, compact or garbage-collect a verdict-cache "
             "directory (safe concurrent with active sweeps)",
    )
    p13.add_argument(
        "action", choices=("stats", "compact", "gc"),
        help="stats: file/entry/byte summary; compact: fold every "
             "committed verdict into one consolidated shard and drop "
             "quiescent source files; gc: delete quiescent shard files "
             "by age and/or size budget",
    )
    p13.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="cache directory (default: results/cache)",
    )
    p13.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="gc: shrink the directory to at most N bytes of shards "
             "(oldest quiescent files first)",
    )
    p13.add_argument(
        "--max-age-days", type=float, default=None, metavar="D",
        help="gc: delete quiescent shard files older than D days",
    )
    p13.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON (machine-readable)",
    )
    p13.set_defaults(handler=_cmd_sweep_cache)

    p14 = sub.add_parser(
        "sweep-db",
        help="durable result store: publish shard artifacts, list runs, "
             "query rows, validate completeness + drift, export CSV",
    )
    p14.add_argument(
        "action",
        choices=("publish", "runs", "query", "validate", "export-csv"),
        help="publish: canonicalise and append a complete artifact set "
             "(idempotent); runs: list published runs; query: print one "
             "run's canonical rows; validate: completeness + cross-run "
             "drift report (exit 1 on findings); export-csv: write one "
             "run as CSV, bit-identical to the legacy writer",
    )
    p14.add_argument(
        "artifacts", nargs="*", metavar="SHARD.json",
        help="shard artifacts to publish (publish action; every shard "
             "of one sweep)",
    )
    p14.add_argument(
        "--store-dir", type=str, default=None, metavar="DIR",
        help="result-store directory (default: results)",
    )
    p14.add_argument(
        "--job", type=str, default=None, metavar="FILE",
        help="publish: record this JSON job file as the run's provenance",
    )
    p14.add_argument(
        "--run", type=int, default=None, metavar="ID",
        help="run id for query/export-csv (default: the latest "
             "matching run)",
    )
    p14.add_argument(
        "--fingerprint", type=str, default=None,
        help="filter runs by workload fingerprint",
    )
    p14.add_argument(
        "--kind", type=str, default=None,
        help="filter runs by artifact kind (sweep, splitsweep, ...)",
    )
    p14.add_argument(
        "--csv", type=str, default=None, metavar="PATH",
        help="export-csv: output path (required)",
    )
    p14.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="query: print at most N rows",
    )
    p14.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of tables",
    )
    p14.set_defaults(handler=_cmd_sweep_db)

    return parser


def _shard_arg(text: str):
    """argparse type for ``--shard I/N`` (one-based, validated)."""
    from repro.engine.shard import parse_shard

    try:
        return parse_shard(text)
    except ShardError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _items_arg(text: str):
    """argparse type for ``--shard-items`` (comma list, validated)."""
    from repro.engine.shard import parse_items

    try:
        return parse_items(text)
    except ShardError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _seed_arg(text: str) -> int:
    """argparse type for ``demo``/``breakdown --seed``: a non-negative int."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return seed


def _add_workload_args(parser: argparse.ArgumentParser, kind: str) -> None:
    """An alias's workload flags, each ``dest`` a ``Workload`` field;
    ``None`` lets ``Workload`` default them."""
    parser.add_argument("--m", type=int, default=None,
                        help="core count (paper: 4, 8, 16; default 4)")
    parser.add_argument("--tasksets", type=int, default=None,
                        dest="n_tasksets",
                        help="task-sets per utilisation point (figure2/group2, "
                             "default 300) or in the corpus (splitsweep, "
                             "default 30)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed (default 2016)")
    if kind != "splitsweep":
        parser.add_argument("--step", type=float, default=None,
                            help="utilisation grid step (default m/16)")
        return
    parser.add_argument("--utilization", type=float, default=None,
                        help="corpus utilisation (default 1.75)")
    parser.add_argument("--thresholds", type=float, nargs="+", default=None,
                        help="NPR size caps (default 1000 100 50 25 10 5)")
    parser.add_argument("--overhead", type=float, default=None,
                        help="WCET inflation per inserted preemption point")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """``sweep-run``'s execution, orchestration and output flags.

    Execution flags default to ``None`` so a job file's value survives
    when the flag is not given.  Any orchestration flag switches from
    one inline invocation to a whole sharded orchestration of the job.
    """
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="overrides",
        help="override one spec field, e.g. --set workload.m=8 or "
             "--set execution.jobs=4 (repeatable; bare field names "
             "resolve to their section)",
    )
    parser.add_argument(
        "--save-job", type=str, default=None, metavar="FILE",
        help="write the effective (post-override) spec to FILE and "
             "continue",
    )
    parser.add_argument("--dry-run", action="store_true",
                        help="print the effective spec and exit without running")
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes, per shard when orchestrated (results are "
             "identical for any value)",
    )
    parser.add_argument(
        "--checkpoint", type=str, default=None,
        help="JSON checkpoint path; an interrupted sweep resumes from it",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="pin work items per executor task (default: 1 serially, "
             "min(ceil(items / (8 x jobs)), 16) on a pool)",
    )
    parser.add_argument(
        "--shard", type=_shard_arg, default=None, metavar="I/N",
        help="run only shard I of N (one-based); merge artifacts with "
             "'sweep-merge' to recover the exact unsharded result",
    )
    parser.add_argument(
        "--shard-out", type=str, default=None, metavar="PATH",
        help="shard artifact path (default: <kind>-m<M>-shardIofN.json)",
    )
    parser.add_argument(
        "--stream", type=str, default=None, metavar="PATH",
        help="append each completed work item to this JSONL file as it "
             "finishes",
    )
    parser.add_argument(
        "--shard-items", type=_items_arg, default=None, metavar="I,J,...",
        help="evaluate only these work items of the shard's slice (the "
             "orchestrator's elastic sub-shard dispatch)",
    )
    parser.add_argument(
        "--cache", choices=("off", "read", "readwrite"), default=None,
        help="verdict cache keyed on each grid item's coordinates: "
             "'readwrite' records every analysed item, 'read' only "
             "consumes prior entries; results are bit-identical in "
             "every mode",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="verdict cache directory (default: results/cache; implies "
             "--cache readwrite)",
    )
    parser.add_argument(
        "--publish", action="store_true", default=None,
        help="publish the merged result into the durable result store "
             "(append-only sqlite; re-publishing an identical run is a "
             "deduplicated no-op)",
    )
    parser.add_argument(
        "--store-dir", type=str, default=None, metavar="DIR",
        help="result-store directory (default: results; implies "
             "--publish)",
    )
    parser.add_argument("--workers", type=int, default=None,
                        help="orchestrate with this many backend slots")
    parser.add_argument(
        "--shards", type=int, default=None,
        help="orchestration shard count (default: one per worker)",
    )
    parser.add_argument("--retries", type=int, default=2,
                        help="extra launch attempts per failed/stalled shard")
    parser.add_argument(
        "--backend", choices=("local", "template", "daemon"), default=None,
        help="orchestrate on this backend instead of running inline",
    )
    parser.add_argument(
        "--backend-template", type=str, default=None, metavar="TMPL",
        help="command template containing {command}, e.g. "
             "'ssh worker1 {command}' (implies --backend template)",
    )
    parser.add_argument(
        "--daemon-socket", action="append", default=None, metavar="SOCK",
        dest="daemon_sockets",
        help="socket of a running sweep-daemon; repeat once per daemon "
             "(implies --backend daemon)",
    )
    parser.add_argument(
        "--daemon-capacity", type=int, default=None, metavar="N",
        help="cap concurrent shard jobs packed onto each daemon",
    )
    parser.add_argument("--elastic", action="store_true",
                        help="re-partition straggling shards onto idle slots")
    parser.add_argument("--elastic-after", type=float, default=2.0, metavar="S",
                        help="seconds a shard must run before it may be split")
    parser.add_argument("--max-splits", type=int, default=8, metavar="N",
                        help="ceiling on elastic re-partitions")
    parser.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="orchestration directory (default: orchestration-<kind>-m<M>); "
             "reuse it to resume an interrupted run",
    )
    parser.add_argument("--poll-interval", type=float, default=0.2,
                        help="seconds between dispatch/stream polls")
    parser.add_argument("--stall-timeout", type=float, default=None, metavar="S",
                        help="relaunch a shard with no stream progress for S "
                             "seconds")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress live progress lines")
    parser.add_argument("--csv", type=str, default=None,
                        help="write series to CSV")
    parser.add_argument("--chart", action="store_true",
                        help="print an ASCII chart (figure2/group2)")


def _print_outputs(spec, result, args: argparse.Namespace) -> None:
    """The ``--chart`` and ``--csv`` outputs shared by run and merge."""
    if args.chart:
        if spec.artifact_kind == "sweep":
            from repro.experiments.reporting import sweep_chart

            print()
            print(sweep_chart(result))
        else:
            print(f"\n(--chart applies to figure2/group2 sweeps; "
                  f"{spec.name} results have no chart form)")
    if args.csv:
        path = spec.write_csv(result, args.csv)
        print(f"series written to {path}")


# ----------------------------------------------------------------------
def _cmd_figure1(_: argparse.Namespace) -> int:
    from repro.experiments.figure1 import (
        figure1_table1,
        figure1_table2,
        figure1_table3,
        paper_deltas,
    )
    from repro.experiments.reporting import format_table

    table1 = figure1_table1()
    rows = [
        [c + 1] + [table1[f"tau{i}"][c] for i in range(1, 5)] for c in range(4)
    ]
    print(format_table(["c", "mu1[c]", "mu2[c]", "mu3[c]", "mu4[c]"], rows,
                       title="Table I - worst-case workloads"))
    print()
    rows2 = [
        [str(s.parts), s.cardinality, s.describe()] for s in figure1_table2()
    ]
    print(format_table(["s_l", "|s_l|", "description"], rows2,
                       title="Table II - execution scenarios e_4"))
    print()
    table3 = figure1_table3()
    rows3 = [[str(parts), value] for parts, value in table3.items()]
    print(format_table(["s_l", "rho[s_l]"], rows3,
                       title="Table III - overall worst-case workloads"))
    print()
    for method, (d_m, d_m1) in paper_deltas().items():
        print(f"{method}: Delta^4 = {d_m:g}, Delta^3 = {d_m1:g}")
    print("(paper: LP-ILP 19/15, LP-max 20/16)")
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload
    from repro.engine.session import run_job
    from repro.experiments.timing import timing_table

    try:
        job = JobSpec(
            workload=Workload(
                kind="timing", core_counts=tuple(args.m),
                n_tasksets=args.samples, seed=args.seed,
            ),
            execution=ExecutionPolicy(jobs=args.jobs),
        )
        rows = run_job(job)
    except ReproError as exc:
        print(f"timing: {exc}", file=sys.stderr)
        return 1
    print(timing_table(rows))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import AnalysisMethod, analyze_taskset
    from repro.experiments.reporting import format_table
    from repro.generator.profiles import GROUP1, GROUP2
    from repro.generator.taskset_gen import generate_taskset
    from repro.rng import default_rng
    from repro.sim import simulate, synchronous_periodic_releases

    try:
        rng = default_rng(args.seed)
        profile = GROUP1 if args.group == 1 else GROUP2
        taskset = generate_taskset(rng, args.utilization, profile)
        analyses = {}
        for method in (AnalysisMethod.FP_IDEAL, AnalysisMethod.LP_ILP,
                       AnalysisMethod.LP_MAX):
            analyses[method.value] = analyze_taskset(taskset, args.m, method)
        horizon = 4 * max(t.period for t in taskset)
        sim = simulate(taskset, args.m,
                       synchronous_periodic_releases(taskset, horizon))
    except ReproError as exc:
        print(f"demo: {exc}", file=sys.stderr)
        return 1

    print(f"generated {len(taskset)} tasks, U = {taskset.total_utilization:.3f}\n")
    rows = []
    for task in taskset:
        rows.append([task.name, task.n_nodes, f"{task.volume:g}",
                     f"{task.longest_path:g}", f"{task.period:.1f}",
                     f"{task.utilization:.3f}"])
    print(format_table(["task", "|V|", "vol", "L", "T=D", "util"], rows))
    print()

    rows = []
    for task in taskset:
        row = [task.name]
        for method, result in analyses.items():
            r = result.task(task.name)
            row.append(f"{r.response:.1f}" if r.bounded else "FAIL")
        rows.append(row)
    print(format_table(["task"] + list(analyses), rows,
                       title=f"response-time bounds on m={args.m}"))
    verdicts = ", ".join(f"{k}: {'SCHED' if v.schedulable else 'UNSCHED'}"
                         for k, v in analyses.items())
    print(f"\n{verdicts}")

    print(f"\nsimulation over {horizon:.0f} time units: "
          f"{len(sim.records)} jobs, {sim.deadline_misses} deadline misses")
    rows = []
    for name, stats in sorted(sim.task_stats().items()):
        bound = analyses["LP-ILP"].task(name)
        rows.append([name, stats.jobs, f"{stats.max_response:.1f}",
                     f"{bound.response:.1f}" if bound.bounded else "-"])
    print(format_table(["task", "jobs", "max observed R", "LP-ILP bound"], rows))
    return 0


def _cmd_breakdown(args: argparse.Namespace) -> int:
    from repro.core import AnalysisMethod
    from repro.core.sensitivity import breakdown_utilization
    from repro.experiments.reporting import format_table
    from repro.generator.profiles import GROUP1
    from repro.generator.taskset_gen import generate_taskset
    from repro.rng import default_rng

    try:
        rng = default_rng(args.seed)
        rows = []
        for i in range(args.samples):
            taskset = generate_taskset(rng, args.utilization, GROUP1)
            row = [f"set {i} (n={len(taskset)})"]
            for method in (AnalysisMethod.FP_IDEAL, AnalysisMethod.LP_ILP,
                           AnalysisMethod.LP_MAX):
                value = breakdown_utilization(taskset, args.m, method)
                row.append(f"{value:.2f}")
            rows.append(row)
    except ReproError as exc:
        print(f"breakdown: {exc}", file=sys.stderr)
        return 1
    print(format_table(
        ["task-set", "FP-ideal", "LP-ILP", "LP-max"],
        rows,
        title=f"Breakdown utilisation on m={args.m} "
              f"(base U={args.utilization})",
    ))
    print("\nHigher is better; the ordering LP-max <= LP-ILP <= FP-ideal")
    print("mirrors the pessimism of the three analyses.")
    return 0


def _job_from_args(args: argparse.Namespace):
    """The effective :class:`~repro.engine.jobspec.JobSpec` of a
    ``sweep-run`` (or alias) invocation: the job source, then ``--set``
    overrides, then the execution flags."""
    from repro.engine.jobspec import (
        JobSpec,
        Workload,
        load_job,
        parse_set_override,
    )
    from repro.engine.registry import kind_spec

    if args.kind is not None:
        # An alias's flag dests are workload field names.
        job = JobSpec(workload=Workload(kind=args.kind, **{
            key: getattr(args, key) for key in kind_spec(args.kind).keys[1:]
            if getattr(args, key, None) is not None
        }))
    elif args.job is not None:
        job = load_job(args.job)
    else:
        job = JobSpec.from_json(args.job_json)
    overrides = dict(parse_set_override(pair) for pair in args.overrides)
    if overrides:
        job = job.with_overrides(overrides)
    flag_overrides = {
        key: getattr(args, attr)
        for attr, key in (
            ("jobs", "execution.jobs"),
            ("checkpoint", "execution.checkpoint"),
            ("chunk_size", "execution.chunk_size"),
            ("shard", "execution.shard"),
            ("shard_out", "execution.shard_out"),
            ("stream", "execution.stream"),
            ("shard_items", "execution.items"),
            ("cache", "execution.cache"),
            ("cache_dir", "execution.cache_dir"),
            ("publish", "execution.publish"),
            ("store_dir", "execution.store_dir"),
        )
        if getattr(args, attr) is not None
    }
    if flag_overrides:
        job = job.with_overrides(flag_overrides)
    if (
        args.cache is None
        and args.cache_dir is not None
        and job.execution.cache == "off"
    ):
        # Naming a cache directory is an intent to use it.
        job = job.with_overrides({"execution.cache": "readwrite"})
    if (
        args.publish is None
        and args.store_dir is not None
        and not job.execution.publish
    ):
        # Likewise, naming a store directory is an intent to publish.
        job = job.with_overrides({"execution.publish": True})
    if job.execution.shard is not None and job.execution.shard_out is None:
        # A sharded run always persists its artifact, or the slice's
        # work could never be merged.
        shard = job.execution.shard
        job = job.with_overrides({
            "execution.shard_out":
            f"{job.kind}-m{job.workload.m}"
            f"-shard{shard.index + 1}of{shard.count}.json"
        })
    return job


def _orchestrate(job, args: argparse.Namespace):
    """Run ``job`` as a whole orchestration on the backend the flags
    describe; returns ``(outcome, out_dir)``."""
    import shlex

    from repro.engine.backends import make_backend
    from repro.engine.orchestrator import Orchestrator, plan_from_jobspec

    out_dir = args.out or f"orchestration-{job.kind}-m{job.workload.m}"
    kind = args.backend or "local"
    if args.backend_template:
        kind = "template"
    if args.daemon_sockets:
        kind = "daemon"
    template = (
        shlex.split(args.backend_template) if args.backend_template else None
    )
    with make_backend(
        kind,
        slots=args.workers if args.workers is not None else 2,
        template=template,
        sockets=args.daemon_sockets,
        daemon_capacity=args.daemon_capacity,
    ) as backend:
        outcome = Orchestrator(
            plan_from_jobspec(job),
            out_dir,
            backend=backend,
            shards=args.shards,
            retries=args.retries,
            poll_interval=args.poll_interval,
            stall_timeout=args.stall_timeout,
            elastic=args.elastic,
            elastic_after=args.elastic_after,
            max_splits=args.max_splits,
            progress=None if args.quiet else _orchestrate_progress(),
        ).run()
    return outcome, out_dir


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    """``sweep-run`` and its ``figure2``/``group2``/``splitsweep`` aliases."""
    from repro.engine.jobspec import save_job
    from repro.engine.registry import kind_spec
    from repro.engine.session import run_job

    orchestrated = (
        args.workers is not None
        or args.shards is not None
        or args.out is not None
        or args.elastic
        or args.backend is not None
        or bool(args.backend_template)
        or bool(args.daemon_sockets)
    )
    try:
        job = _job_from_args(args)
        if args.save_job:
            save_job(args.save_job, job)
            print(f"effective job written to {args.save_job}")
        if args.dry_run:
            print(job.to_json())
            return 0
        if orchestrated:
            outcome, out_dir = _orchestrate(job, args)
            result = outcome.result
        else:
            result = run_job(job)
        spec = kind_spec(job.kind)
        shard = job.execution.shard
        if orchestrated:
            note = f", {len(outcome.attempts)} shards"
        else:
            note = f", shard {shard.label}" if shard else ""
        print(spec.render(result, job.workload, note))
        _print_outputs(spec, result, args)
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    if orchestrated:
        _print_orchestration_summary(outcome, out_dir)
    elif shard is not None:
        print(
            f"\nshard {shard.label} artifact written to "
            f"{job.execution.shard_out}\n"
            "(partial counts above cover only this shard; recombine every "
            "shard with: python -m repro sweep-merge SHARD.json ...)"
        )
    return 0


def _cmd_sweep_merge(args: argparse.Namespace) -> int:
    from repro.engine.registry import merge_artifacts, spec_for_artifact
    from repro.engine.shard import load_shard

    try:
        artifacts = [load_shard(path) for path in args.shards]
        spec = spec_for_artifact(artifacts[0].kind)
        result = merge_artifacts(artifacts)
        print(spec.render_merged(result, artifacts[0].meta, len(artifacts)))
        _print_outputs(spec, result, args)
    except ReproError as exc:
        print(f"sweep-merge: {exc}", file=sys.stderr)
        return 1
    return 0


def _orchestrate_progress():
    """Progress callback printing one line per cluster-state change."""
    last = {"done": -1, "states": None}

    def callback(view) -> None:
        states = tuple(s.state for s in view.shards)
        if view.done_items == last["done"] and states == last["states"]:
            return
        last["done"] = view.done_items
        last["states"] = states
        running = sum(s.state == "running" for s in view.shards)
        finished = sum(s.state == "finished" for s in view.shards)
        restarts = sum(s.restarts for s in view.shards)
        line = (
            f"[{view.done_items}/{view.total_items} items, "
            f"{100 * view.fraction_done:.0f}%] shards: {running} running, "
            f"{finished} finished"
        )
        if restarts:
            line += f", {restarts} restarted"
        print(line, flush=True)

    return callback


def _print_orchestration_summary(outcome, out_dir) -> None:
    shard_count = len(outcome.attempts)
    retry_note = (
        f", {outcome.retries} shard retr{'y' if outcome.retries == 1 else 'ies'}"
        if outcome.retries else ""
    )
    split_note = (
        f", {outcome.splits} elastic split{'' if outcome.splits == 1 else 's'}"
        if outcome.splits else ""
    )
    print(f"\norchestrated {shard_count} shard invocations in "
          f"{outcome.elapsed_seconds:.1f}s{retry_note}{split_note}; "
          f"artifacts + manifest in {out_dir}")
    view = outcome.view
    if view.cache_hits or view.cache_misses:
        health = ""
        if view.cache_swept or view.cache_stale:
            health = (f" ({view.cache_swept} swept, "
                      f"{view.cache_stale} stale)")
        print(f"verdict cache: {view.cache_hits} hits / "
              f"{view.cache_misses} misses{health}")
    publication = getattr(outcome, "publication", None)
    if publication:
        note = (
            "deduplicated, no new rows" if publication["deduplicated"]
            else f"{publication['rows_added']} rows added"
        )
        print(f"published run {publication['run_id']} "
              f"({publication['row_count']} rows, {note}) "
              f"-> {publication['store']}")


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.engine.orchestrator import read_status
    from repro.experiments.reporting import format_table

    try:
        status = read_status(args.out_dir)
    except ReproError as exc:
        print(f"sweep-status: {exc}", file=sys.stderr)
        return 1

    manifest = status.manifest
    view = status.view
    labels = {
        int(entry["index"]): str(
            entry.get("label")
            or f"{int(entry['index']) + 1}/{manifest['shard_count']}"
        )
        for entry in manifest["shards"]
    }
    rows = []
    for shard in view.shards:
        phase = "complete" if status.artifacts_done[shard.index] else shard.state
        rows.append([
            labels.get(shard.index, f"{shard.index + 1}/{len(view.shards)}"),
            phase,
            shard.done_items,
            shard.restarts,
        ])
    print(format_table(
        ["shard", "state", "items done", "restarts"],
        rows,
        title=(f"{manifest['experiment']} orchestration in {args.out_dir} "
               f"(manifest state: {status.state})"),
    ))
    print(f"\nprogress: {view.done_items}/{view.total_items} items "
          f"({100 * view.fraction_done:.0f}%)")
    cache_total = view.cache_hits + view.cache_misses
    if cache_total:
        # cache_total == 0 (fresh orchestration, nothing analysed yet)
        # must not divide: no traffic means no hit-rate line at all.
        health = ""
        if view.cache_swept or view.cache_stale:
            health = (f"; {view.cache_swept} swept, "
                      f"{view.cache_stale} stale")
        print(f"verdict cache: {view.cache_hits} hits / "
              f"{view.cache_misses} misses "
              f"({100 * view.cache_hits / cache_total:.0f}% hit rate"
              f"{health})")
    if view.timed_items:
        print(f"observed cost: {view.timed_seconds / view.timed_items:.4f}s/item")
    if status.complete:
        print(f"all {len(view.shards)} shard artifacts complete; merged "
              f"result via: python -m repro sweep-merge "
              f"{args.out_dir}/shard-*.artifact.json")
    publication = manifest.get("publication")
    if publication is None:
        print("published: no")
    else:
        from repro.engine.store import ResultStore

        run_id = int(publication["run_id"])
        try:
            with ResultStore(publication["store"]) as store:
                rows = store.row_count(run_id)
        except ReproError:
            # Manifest says published, but the store moved or broke —
            # report the recorded count and say so.
            print(f"published: yes ({publication['row_count']} rows at "
                  f"publish time; store {publication['store']} "
                  f"unreadable now)")
        else:
            print(f"published: yes ({rows} rows) -> run {run_id} in "
                  f"{publication['store']}")
    return 0


def _cmd_sweep_cache(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.engine.vcache import (
        DEFAULT_CACHE_DIR,
        cache_stats,
        compact_cache,
        gc_cache,
    )

    directory = args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
    try:
        if args.action == "stats":
            summary = cache_stats(directory)
        elif args.action == "compact":
            summary = compact_cache(directory)
        else:
            summary = gc_cache(
                directory,
                max_bytes=args.max_bytes,
                max_age_days=args.max_age_days,
            )
    except ReproError as exc:
        print(f"sweep-cache: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"verdict cache {summary['directory']} ({args.action}):")
    for key, value in summary.items():
        if key != "directory":
            print(f"  {key}: {value}")
    return 0


def _store_run_id(store, args: argparse.Namespace) -> int:
    """The run ``sweep-db query``/``export-csv`` should read.

    ``--run`` wins; otherwise the latest run matching the
    ``--fingerprint``/``--kind`` filters (``runs()`` orders by id).
    """
    from repro.exceptions import StoreError

    if args.run is not None:
        return args.run
    records = store.runs(fingerprint=args.fingerprint, kind=args.kind)
    if not records:
        raise StoreError(
            "the store has no runs matching the given filters; publish "
            "first or loosen --fingerprint/--kind"
        )
    return records[-1].run_id


def _cmd_sweep_db(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.engine.store import open_store, publish_artifacts
    from repro.engine.validation import validate_store
    from repro.experiments.reporting import format_table

    try:
        if args.action == "publish":
            if not args.artifacts:
                print("sweep-db: publish needs at least one shard "
                      "artifact (every shard of one sweep)",
                      file=sys.stderr)
                return 2
            job = None
            if args.job is not None:
                from repro.engine.jobspec import load_job

                job = load_job(args.job)
            report = publish_artifacts(
                args.store_dir, args.artifacts, job=job, source="cli",
            )
            if args.json:
                print(json_module.dumps({
                    "store": str(report.path),
                    "run_id": report.run_id,
                    "kind": report.kind,
                    "fingerprint": report.fingerprint,
                    "row_count": report.row_count,
                    "rows_added": report.rows_added,
                    "deduplicated": report.deduplicated,
                }, indent=2, sort_keys=True))
            else:
                note = (
                    "deduplicated, no new rows" if report.deduplicated
                    else f"{report.rows_added} rows added"
                )
                print(f"published {report.kind} run {report.run_id} "
                      f"({report.row_count} rows, {note}) -> {report.path}")
            return 0

        with open_store(args.store_dir) as store:
            if args.action == "runs":
                records = store.runs(
                    fingerprint=args.fingerprint, kind=args.kind,
                )
                if args.json:
                    print(json_module.dumps([
                        {
                            "run_id": record.run_id,
                            "kind": record.kind,
                            "fingerprint": record.fingerprint,
                            "total_items": record.total_items,
                            "expected_rows": record.expected_rows,
                            "rows": store.row_count(record.run_id),
                        }
                        for record in records
                    ], indent=2, sort_keys=True))
                    return 0
                print(format_table(
                    ["run", "kind", "fingerprint", "items", "rows"],
                    [
                        [
                            record.run_id,
                            record.kind,
                            record.fingerprint[:16],
                            record.total_items,
                            f"{store.row_count(record.run_id)}"
                            f"/{record.expected_rows}",
                        ]
                        for record in records
                    ],
                    title=f"result store {store.path}",
                ))
                return 0

            if args.action == "query":
                run_id = _store_run_id(store, args)
                record = store.run(run_id)
                rows = store.rows(run_id)
                shown = rows if args.limit is None else rows[:args.limit]
                if args.json:
                    print(json_module.dumps({
                        "run_id": run_id,
                        "kind": record.kind,
                        "fingerprint": record.fingerprint,
                        "rows": [
                            {"item": item, "seq": seq, "payload": payload}
                            for item, seq, payload in shown
                        ],
                    }, indent=2, sort_keys=True))
                    return 0
                print(f"run {run_id} ({record.kind}, "
                      f"{record.fingerprint[:16]}...): "
                      f"{len(rows)} rows")
                for item, seq, payload in shown:
                    print(f"  {item:6d} {seq:4d}  "
                          f"{json_module.dumps(payload)}")
                if len(shown) < len(rows):
                    print(f"  ... {len(rows) - len(shown)} more "
                          f"(raise --limit)")
                return 0

            if args.action == "validate":
                report = validate_store(store)
                if args.json:
                    print(json_module.dumps({
                        "runs_checked": report.runs_checked,
                        "ok": report.ok,
                        "incomplete": [
                            issue.describe() for issue in report.incomplete
                        ],
                        "drift": [
                            issue.describe() for issue in report.drift
                        ],
                    }, indent=2, sort_keys=True))
                    return 0 if report.ok else 1
                print(f"result store {store.path}: "
                      f"{report.runs_checked} runs checked")
                for issue in report.incomplete:
                    print(f"  incomplete: {issue.describe()}")
                for issue in report.drift:
                    print(f"  drift: {issue.describe()}")
                if report.ok:
                    print("  complete, no drift")
                    return 0
                print(f"  {len(report.incomplete)} incomplete, "
                      f"{len(report.drift)} drift findings")
                return 1

            # export-csv
            if args.csv is None:
                print("sweep-db: export-csv needs --csv PATH",
                      file=sys.stderr)
                return 2
            run_id = _store_run_id(store, args)
            path = store.export_csv(run_id, args.csv)
            print(f"run {run_id} exported to {path}")
            return 0
    except ReproError as exc:
        print(f"sweep-db: {exc}", file=sys.stderr)
        return 1


def _cmd_sweep_daemon(args: argparse.Namespace) -> int:
    from repro.engine.daemon import run_daemon

    try:
        return run_daemon(args.socket, capacity=args.capacity)
    except ReproError as exc:
        print(f"sweep-daemon: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

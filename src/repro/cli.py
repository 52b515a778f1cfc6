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
  layer overrides on top.  One host runs a job with ``--jobs N``;
  several hosts each run one ``--shard I/N`` of it;
* ``sweep-merge`` — recombine ``--shard I/N`` artifacts into the exact
  unsharded result;
* ``sweep-cache`` — verdict-cache lifecycle (``stats``, ``compact``),
  safe while sweeps read and write the same directory.

A run's record is its ``--csv`` and, when asked for, its
``--shard-out`` artifact.

``figure2``, ``group2`` and ``splitsweep`` are aliases of ``sweep-run``:
their few workload flags build the job, and every execution and
output flag of ``sweep-run`` applies unchanged (``--jobs``,
``--shard``, ``--stream``, ``--checkpoint``, ``--cache``, ``--csv``,
``--dry-run`` ...).  One handler runs every
sweep, so flags, errors and output are the same whichever way a job
starts.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.exceptions import ReproError, ShardError

def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (``repro ... | head``).  Point
        # stdout at devnull, so the interpreter's flush at exit cannot
        # fail again, and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


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

    p12 = sub.add_parser(
        "sweep-run",
        help="execute a declarative JobSpec (JSON job file)",
    )
    source = p12.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--job", type=str, default=None, metavar="FILE",
        help="JSON job file (see README 'Declarative jobs')",
    )
    source.add_argument(
        "--job-json", type=str, default=None, metavar="JSON",
        help="the JobSpec JSON inline, for scripts that build jobs "
             "without writing a file",
    )
    _add_run_args(p12)
    p12.set_defaults(handler=_cmd_sweep_run, kind=None)

    p13 = sub.add_parser(
        "sweep-cache",
        help="inspect or compact a verdict-cache directory (safe "
             "concurrent with active sweeps; delete it to reclaim space)",
    )
    p13.add_argument(
        "action", choices=("stats", "compact"),
        help="stats: file/entry/byte summary; compact: fold every "
             "committed verdict into one consolidated shard and drop "
             "quiescent source files",
    )
    p13.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="cache directory (default: results/cache)",
    )
    p13.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON (machine-readable)",
    )
    p13.set_defaults(handler=_cmd_sweep_cache)

    return parser


def _shard_arg(text: str):
    """argparse type for ``--shard I/N`` (one-based, validated)."""
    from repro.engine.shard import parse_shard

    try:
        return parse_shard(text)
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
    """``sweep-run``'s execution and output flags.

    Execution flags default to ``None`` so a job file's value survives
    when the flag is not given.
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
        help="worker processes (results are identical for any value)",
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
            ("cache", "execution.cache"),
            ("cache_dir", "execution.cache_dir"),
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


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    """``sweep-run`` and its ``figure2``/``group2``/``splitsweep`` aliases."""
    from repro.engine.jobspec import save_job
    from repro.engine.registry import kind_spec
    from repro.engine.session import run_job

    try:
        job = _job_from_args(args)
        if args.save_job:
            save_job(args.save_job, job)
            print(f"effective job written to {args.save_job}")
        if args.dry_run:
            print(job.to_json())
            return 0
        result = run_job(job)
        spec = kind_spec(job.kind)
        shard = job.execution.shard
        note = f", shard {shard.label}" if shard else ""
        print(spec.render(result, job.workload, note))
        _print_outputs(spec, result, args)
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    if shard is not None:
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


def _cmd_sweep_cache(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.engine.vcache import DEFAULT_CACHE_DIR, cache_stats, compact_cache

    directory = args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR
    action = cache_stats if args.action == "stats" else compact_cache
    try:
        summary = action(directory)
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

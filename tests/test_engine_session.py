"""The Session façade and the ``sweep-run`` CLI.

Covers the behavioural contract: inline job execution is bit-identical
to running the workload's engine spec directly, submitted jobs run
asynchronously on dispatch backends and rebuild their results from
shard artifacts, job files resume through their checkpoints, and the
``sweep-run`` subcommand reproduces its alias subcommands' artifacts
bit-for-bit (fingerprints included).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import ShardSpec
from repro.engine.jobspec import (
    ExecutionPolicy,
    JobSpec,
    Workload,
    load_job,
    save_job,
)
from repro.engine.session import Session, run_job
from repro.engine.shard import load_shard
from repro.exceptions import DispatchError, JobSpecError


def _strip(result):
    return dataclasses.replace(result, elapsed_seconds=0.0)


def _figure2_job(**execution) -> JobSpec:
    return JobSpec(
        workload=Workload(kind="figure2", m=2, n_tasksets=4, seed=3, step=1.0),
        execution=ExecutionPolicy(**execution),
    )


def _engine_figure2():
    """The same sweep run straight on the engine, without a job."""
    from repro.engine import SweepEngine
    from repro.experiments.figure2 import figure2_spec

    return SweepEngine().run(figure2_spec(m=2, n_tasksets=4, seed=3, step=1.0))


class TestSessionRun:
    def test_inline_run_matches_legacy(self):
        assert _strip(run_job(_figure2_job())) == _strip(_engine_figure2())

    def test_executor_policy_is_respected_bit_identically(self):
        reference = _strip(run_job(_figure2_job()))
        for execution in (
            dict(jobs=2),
            dict(jobs=3),
            dict(jobs=2, chunk_size=3),
        ):
            assert _strip(run_job(_figure2_job(**execution))) == reference

    def test_sharded_job_writes_artifact(self, tmp_path):
        artifact = tmp_path / "shard.json"
        run_job(_figure2_job(shard=ShardSpec(0, 2), shard_out=artifact))
        loaded = load_shard(artifact)
        assert loaded.fingerprint == _figure2_job().fingerprint()
        assert loaded.shard == ShardSpec(0, 2)

    def test_group2_job_matches_legacy(self):
        from repro.engine import SweepEngine
        from repro.experiments.group2 import group2_spec, summarize_group2

        job = JobSpec(workload=Workload(
            kind="group2", m=2, n_tasksets=4, seed=3, step=1.0,
        ))
        legacy = summarize_group2(SweepEngine().run(
            group2_spec(m=2, n_tasksets=4, seed=3, step=1.0)
        ))
        report = summarize_group2(run_job(job))
        assert _strip(report.sweep) == _strip(legacy.sweep)
        assert report.max_gap == legacy.max_gap

    def test_splitsweep_job_matches_legacy(self):
        # The per-item oracle: evaluate every corpus task-set directly
        # and reduce in corpus order, with no runner in between.
        import numpy as np

        from repro.core.analyzer import AnalysisMethod
        from repro.engine.shard import ShardArtifact
        from repro.experiments.splitsweep import (
            _evaluate_split_item,
            reduce_splitsweep,
        )
        from repro.generator.profiles import GROUP1
        from repro.generator.taskset_gen import generate_taskset

        job = JobSpec(workload=Workload(
            kind="splitsweep", m=2, n_tasksets=3, utilization=1.0,
            thresholds=(100.0, 20.0), seed=7,
        ))
        rng = np.random.default_rng(7)
        corpus = [generate_taskset(rng, 1.0, GROUP1) for _ in range(3)]
        records = {
            index: _evaluate_split_item(
                (taskset, 2, (100.0, 20.0), AnalysisMethod.LP_ILP, 0.0)
            )
            for index, taskset in enumerate(corpus)
        }
        oracle = reduce_splitsweep(ShardArtifact(
            kind="splitsweep", fingerprint="", shard=ShardSpec(0, 1),
            total_items=3, meta={"thresholds": [100.0, 20.0]},
            records=records,
        ))
        assert run_job(job) == oracle

    def test_resume_runs_job_file_through_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "ckpt.json"
        job = _figure2_job(checkpoint=checkpoint)
        job_file = save_job(tmp_path / "job.json", job)
        with Session() as session:
            first = session.resume(job_file)
        assert checkpoint.exists()
        # A second resume replays the finished checkpoint (no recompute
        # needed for correctness — counts must still be identical).
        with Session() as session:
            assert _strip(session.resume(job_file)) == _strip(first)


class TestSessionSubmit:
    def test_submit_wait_result(self, tmp_path):
        with Session(out_dir=tmp_path) as session:
            handle = session.submit(_figure2_job())
            status = session.wait(handle, timeout=120.0)
            assert status.state == "done"
            result = session.result(handle)
        assert _strip(result) == _strip(_engine_figure2())
        # The dispatched spec is recorded next to the artifact.
        recorded = load_job(handle.job_file)
        assert recorded.workload == _figure2_job().workload
        assert recorded.execution.shard_out is not None

    def test_sharded_submit_yields_its_artifact(self, tmp_path):
        # A job restricted to one shard cannot merge alone; result()
        # hands back the shard artifact for a later merge instead of
        # failing the coverage validation.
        from repro.engine.registry import merge_artifacts
        from repro.engine.shard import ShardArtifact

        with Session(out_dir=tmp_path) as session:
            handles = [
                session.submit(_figure2_job(shard=ShardSpec(index, 2)))
                for index in range(2)
            ]
            partials = [session.result(handle) for handle in handles]
        assert all(isinstance(p, ShardArtifact) for p in partials)
        assert _strip(merge_artifacts(partials)) == _strip(_engine_figure2())

    def test_submit_requires_somewhere_to_write(self):
        with Session() as session:
            with pytest.raises(JobSpecError, match="out_dir"):
                session.submit(_figure2_job())

    def test_failed_job_surfaces_log(self, tmp_path):
        # A spec whose checkpoint path is an unwritable directory makes
        # the child fail fast.
        bad = _figure2_job(checkpoint=tmp_path)  # a directory, not a file
        with Session(out_dir=tmp_path) as session:
            handle = session.submit(bad)
            with pytest.raises(DispatchError, match="failed"):
                session.result(handle)

    def test_submit_registry_kind_rebuilds_result(self, tmp_path):
        # A registry-promoted kind goes through the same submit path:
        # the work order is a sweep-run --job-json command line, and
        # result() rebuilds the typed result from the shard artifact.
        job = JobSpec(workload=Workload(
            kind="sensitivity", m=2, n_tasksets=3, seed=5,
            utilization=1.0, max_scale=4.0,
        ))
        inline = run_job(job)
        with Session(out_dir=tmp_path) as session:
            handle = session.submit(job)
            assert session.wait(handle, timeout=120.0).state == "done"
            assert session.result(handle) == inline

    def test_resume_registry_kind_job_file(self, tmp_path):
        job = JobSpec(workload=Workload(
            kind="simulate", m=2, n_tasksets=3, seed=5,
            utilization=1.5, horizon_factor=2.0,
        ))
        job_file = save_job(tmp_path / "job.json", job)
        with Session() as session:
            assert session.resume(job_file) == run_job(job)


class TestSweepRunCli:
    FIG2 = ["figure2", "--m", "2", "--tasksets", "4", "--seed", "3",
            "--step", "1.0"]

    def _job_file(self, tmp_path, execution=None):
        path = tmp_path / "job.json"
        save_job(path, _figure2_job(**(execution or {})))
        return str(path)

    def test_inline_csv_matches_legacy_subcommand(self, tmp_path, capsys):
        legacy_csv = tmp_path / "legacy.csv"
        assert main(self.FIG2 + ["--csv", str(legacy_csv)]) == 0
        job_csv = tmp_path / "job.csv"
        assert main(["sweep-run", "--job", self._job_file(tmp_path),
                     "--csv", str(job_csv)]) == 0
        assert job_csv.read_bytes() == legacy_csv.read_bytes()
        assert "Figure 2" in capsys.readouterr().out

    def test_artifact_bit_identical_to_legacy_subcommand(self, tmp_path):
        legacy_artifact = tmp_path / "legacy.artifact.json"
        assert main(self.FIG2 + ["--shard", "1/2",
                                 "--shard-out", str(legacy_artifact)]) == 0
        job_artifact = tmp_path / "job.artifact.json"
        assert main(["sweep-run", "--job", self._job_file(tmp_path),
                     "--shard", "1/2", "--shard-out", str(job_artifact)]) == 0
        legacy = json.loads(legacy_artifact.read_text())
        fresh = json.loads(job_artifact.read_text())
        legacy.pop("elapsed_seconds")
        fresh.pop("elapsed_seconds")
        assert fresh == legacy  # fingerprint, records, meta: all of it

    def test_set_overrides_apply(self, tmp_path, capsys):
        assert main(["sweep-run", "--job", self._job_file(tmp_path),
                     "--set", "workload.m=3", "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["workload"]["m"] == 3

    def test_flag_overrides_beat_job_file(self, tmp_path, capsys):
        job_file = self._job_file(tmp_path, {"jobs": 1})
        assert main(["sweep-run", "--job", job_file, "--jobs", "2",
                     "--chunk-size", "5", "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["execution"]["jobs"] == 2
        assert printed["execution"]["chunk_size"] == 5

    def test_save_job_round_trips(self, tmp_path):
        saved = tmp_path / "effective.json"
        assert main(["sweep-run", "--job", self._job_file(tmp_path),
                     "--set", "workload.seed=9", "--save-job", str(saved),
                     "--dry-run"]) == 0
        assert load_job(saved).workload.seed == 9

    def test_job_json_inline(self, capsys):
        job = _figure2_job()
        assert main(["sweep-run", "--job-json", job.to_json(indent=None),
                     "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out) == job.to_json_dict()

    def test_bad_job_file_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99, "workload": {"kind": "figure2"}}')
        assert main(["sweep-run", "--job", str(bad)]) == 1
        assert "version" in capsys.readouterr().err

    def test_unknown_set_key_is_one_line_error(self, tmp_path, capsys):
        assert main(["sweep-run", "--job", self._job_file(tmp_path),
                     "--set", "workload.warp=9"]) == 1
        assert "warp" in capsys.readouterr().err

    def test_orchestrated_sweep_run_matches_inline(self, tmp_path):
        inline_csv = tmp_path / "inline.csv"
        assert main(["sweep-run", "--job", self._job_file(tmp_path),
                     "--csv", str(inline_csv)]) == 0
        orch_csv = tmp_path / "orch.csv"
        assert main([
            "sweep-run", "--job", self._job_file(tmp_path),
            "--workers", "2", "--out", str(tmp_path / "orch"),
            "--csv", str(orch_csv), "--quiet",
        ]) == 0
        assert orch_csv.read_bytes() == inline_csv.read_bytes()
        manifest = json.loads(
            (tmp_path / "orch" / "orchestration.json").read_text()
        )
        assert manifest["experiment"] == "figure2"
        # The dispatched worker command embeds the job JSON verbatim.
        argv = manifest["argv"]
        embedded = json.loads(argv[argv.index("--job-json") + 1])
        assert embedded["workload"]["kind"] == "figure2"

    def test_shard_without_shard_out_derives_default_path(
        self, tmp_path, monkeypatch, capsys
    ):
        # Like the legacy subcommands: a sharded run must persist its
        # artifact even when no --shard-out is given.
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-run", "--job", self._job_file(tmp_path),
                     "--shard", "2/2"]) == 0
        assert (tmp_path / "figure2-m2-shard2of2.json").exists()
        assert "sweep-merge" in capsys.readouterr().out

    def test_splitsweep_job_via_cli(self, tmp_path, capsys):
        job = JobSpec(workload=Workload(
            kind="splitsweep", m=2, n_tasksets=3, utilization=1.0,
            thresholds=(100.0, 20.0),
        ))
        path = tmp_path / "ss.json"
        save_job(path, job)
        assert main(["sweep-run", "--job", str(path)]) == 0
        assert "granularity sweep" in capsys.readouterr().out


EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "jobs"


class TestRegistryKindCli:
    """The three registry kinds through ``sweep-run``, end to end.

    Each checked-in example job under ``examples/jobs/`` must load,
    run inline, shard + merge to the same CSV, and render its table.
    """

    SHRINK = ["--set", "workload.n_tasksets=3"]

    def test_sensitivity_inline_run(self, tmp_path, capsys):
        csv_path = tmp_path / "sens.csv"
        assert main(["sweep-run", "--job",
                     str(EXAMPLES / "sensitivity-small.json"),
                     *self.SHRINK, "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Breakdown-utilisation sensitivity" in out
        assert "blocking slack" in out
        assert csv_path.read_text().startswith("method,")

    def test_simulate_inline_run(self, capsys):
        assert main(["sweep-run", "--job",
                     str(EXAMPLES / "simulate-small.json"),
                     *self.SHRINK]) == 0
        out = capsys.readouterr().out
        assert "Analysis-vs-simulation validation" in out
        assert "analysis sound on this corpus" in out

    def test_timing_inline_run(self, capsys):
        assert main(["sweep-run", "--job",
                     str(EXAMPLES / "timing-small.json"),
                     "--set", "workload.n_tasksets=2"]) == 0
        assert "LP-ILP analysis runtime" in capsys.readouterr().out

    def test_sensitivity_sharded_merge_matches_inline(self, tmp_path, capsys):
        inline_csv = tmp_path / "inline.csv"
        base = ["sweep-run", "--job",
                str(EXAMPLES / "sensitivity-small.json"), *self.SHRINK]
        assert main(base + ["--csv", str(inline_csv)]) == 0
        shards = []
        for index in (1, 2):
            shard_path = tmp_path / f"sens{index}.json"
            assert main(base + ["--shard", f"{index}/2",
                                "--shard-out", str(shard_path)]) == 0
            shards.append(str(shard_path))
        merged_csv = tmp_path / "merged.csv"
        capsys.readouterr()
        assert main(["sweep-merge", *shards, "--csv", str(merged_csv)]) == 0
        assert "2 shards" in capsys.readouterr().out
        assert merged_csv.read_bytes() == inline_csv.read_bytes()

    def test_timing_shard_rejects_chart(self, tmp_path, capsys):
        shard_path = tmp_path / "t1.json"
        assert main(["sweep-run", "--job",
                     str(EXAMPLES / "timing-small.json"),
                     "--set", "workload.n_tasksets=2",
                     "--shard", "1/1", "--shard-out", str(shard_path)]) == 0
        capsys.readouterr()
        assert main(["sweep-merge", str(shard_path), "--chart"]) == 0
        assert "no chart form" in capsys.readouterr().out


class TestCacheDirImpliesReadwrite:
    """``--cache-dir`` alone must imply ``--cache readwrite`` (satellite)."""

    def test_sweep_run_cache_dir_implies_readwrite(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        save_job(job, _figure2_job())
        assert main(["sweep-run", "--job", str(job),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["execution"]["cache"] == "readwrite"

    def test_explicit_cache_off_wins(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        save_job(job, _figure2_job())
        assert main(["sweep-run", "--job", str(job), "--cache", "off",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["execution"]["cache"] == "off"

    def test_legacy_subcommand_cache_dir_populates(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["figure2", "--m", "2", "--tasksets", "2", "--seed", "3",
                     "--step", "1.0", "--cache-dir", str(cache_dir)]) == 0
        assert cache_dir.is_dir()
        assert any(cache_dir.glob("*.jsonl"))  # verdicts actually written


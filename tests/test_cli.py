"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "jobs"


class TestFigure1:
    def test_prints_paper_tables(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out
        assert "Delta^4 = 19" in out
        assert "Delta^4 = 20" in out


class TestFigure2:
    def test_small_run(self, capsys, tmp_path):
        csv = tmp_path / "fig2.csv"
        code = main([
            "figure2", "--m", "2", "--tasksets", "4", "--seed", "3",
            "--step", "1.0", "--csv", str(csv), "--chart",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FP-ideal %" in out
        assert "LP-ILP" in out
        assert csv.exists()
        assert csv.read_text().startswith("utilization,")


class TestGroup2:
    def test_small_run(self, capsys):
        assert main(["group2", "--m", "2", "--tasksets", "4",
                     "--seed", "3", "--step", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "ratio gap" in out


class TestTiming:
    def test_small_run(self, capsys):
        assert main(["timing", "--m", "2", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "schedulable" in out

    def test_multiple_core_counts_one_row_each(self, capsys):
        assert main(["timing", "--m", "1", "2", "--samples", "1"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.strip() and line.lstrip()[0].isdigit()]
        assert len(rows) == 2

    def test_rejects_zero_samples(self, capsys):
        assert main(["timing", "--m", "2", "--samples", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("timing:")
        assert "n_tasksets" in err

    def test_rejects_bad_core_count(self, capsys):
        assert main(["timing", "--m", "0", "--samples", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("timing:")
        assert "core count" in err


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--m", "2", "--utilization", "1.0",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "response-time bounds" in out
        assert "simulation over" in out

    def test_demo_group2_profile(self, capsys):
        assert main(["demo", "--m", "2", "--utilization", "1.0",
                     "--seed", "4", "--group", "2"]) == 0
        out = capsys.readouterr().out
        assert "LP-ILP bound" in out

    def test_rejects_nonpositive_utilization(self, capsys):
        assert main(["demo", "--m", "2", "--utilization", "-1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("demo:")
        assert "utilization" in captured.err
        assert captured.out == ""  # nothing half-printed before the error

    def test_rejects_zero_cores(self, capsys):
        assert main(["demo", "--m", "0", "--utilization", "1.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("demo:")
        assert "core count" in err


class TestBreakdown:
    def test_small_run(self, capsys):
        assert main(["breakdown", "--m", "2", "--samples", "2",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Breakdown utilisation" in out
        assert "LP-ILP" in out


class TestNegativeSeed:
    """A negative seed is one ``JobSpecError`` line, never an RNG traceback."""

    @pytest.mark.parametrize("job", ["figure2-small", "splitsweep-small"])
    def test_job_file(self, job, capsys, tmp_path):
        payload = json.loads((EXAMPLES / f"{job}.json").read_text())
        payload["workload"]["seed"] = -1
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        assert main(["sweep-run", "--job", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"sweep-run: {path}: seed must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("job", ["group2-small", "sensitivity-small"])
    def test_set_override(self, job, capsys):
        assert main(["sweep-run", "--job", str(EXAMPLES / f"{job}.json"),
                     "--set", "workload.seed=-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "sweep-run: seed must be >= 0, got -3\n"
        assert captured.out == ""

    def test_alias_flag(self, capsys):
        assert main(["figure2", "--m", "2", "--tasksets", "1",
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "figure2: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["demo", "breakdown"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_direct_seeding_commands_refuse_at_parsing(self, command, seed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--seed", seed])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"seed must be a non-negative integer, got '{seed}'" in err
        assert "Traceback" not in err


class TestSplitSweep:
    def test_overhead_free_run(self, capsys):
        assert main(["splitsweep", "--m", "2", "--tasksets", "3",
                     "--thresholds", "100", "20"]) == 0
        out = capsys.readouterr().out
        assert "granularity sweep" in out
        assert "Overhead-free" in out

    def test_overhead_run(self, capsys):
        assert main(["splitsweep", "--m", "2", "--tasksets", "3",
                     "--thresholds", "100", "20", "--overhead", "1.5"]) == 0
        out = capsys.readouterr().out
        assert "per-point overhead" in out


FIG2_SMALL = ["figure2", "--m", "2", "--tasksets", "4", "--seed", "3",
              "--step", "1.0"]


class TestShardParsing:
    @pytest.mark.parametrize("bad", ["0/2", "3/2", "2/0", "abc", "1-2", "/2",
                                     "1/", "1/2/3"])
    def test_rejects_invalid_shard(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(FIG2_SMALL + ["--shard", bad])
        assert excinfo.value.code == 2
        assert "shard" in capsys.readouterr().err

    def test_shard_runs_and_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "fig2.shard1.json"
        code = main(FIG2_SMALL + ["--shard", "1/2", "--shard-out", str(out)])
        assert code == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "shard 1/2" in printed
        assert "sweep-merge" in printed

    def test_default_shard_out_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(FIG2_SMALL + ["--shard", "2/2"]) == 0
        assert (tmp_path / "figure2-m2-shard2of2.json").exists()


class TestSweepMerge:
    def _write_shards(self, tmp_path, count, extra=()):
        paths = []
        for index in range(1, count + 1):
            path = tmp_path / f"shard{index}.json"
            assert main(FIG2_SMALL + list(extra) + [
                "--shard", f"{index}/{count}", "--shard-out", str(path),
            ]) == 0
            paths.append(str(path))
        return paths

    def test_merge_matches_unsharded_run(self, capsys, tmp_path):
        merged_csv = tmp_path / "merged.csv"
        full_csv = tmp_path / "full.csv"
        paths = self._write_shards(tmp_path, 2)
        assert main(["sweep-merge", *paths, "--csv", str(merged_csv)]) == 0
        assert "Merged sweep" in capsys.readouterr().out
        assert main(FIG2_SMALL + ["--csv", str(full_csv)]) == 0
        assert merged_csv.read_text() == full_csv.read_text()

    def test_merge_parallel_shards_identical(self, tmp_path):
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        serial = self._write_shards(tmp_path, 2)
        assert main(["sweep-merge", *serial, "--csv", str(serial_csv)]) == 0
        pdir = tmp_path / "parallel"
        pdir.mkdir()
        parallel = self._write_shards(pdir, 2, extra=["--jobs", "2"])
        assert main(["sweep-merge", *parallel, "--csv", str(parallel_csv)]) == 0
        assert serial_csv.read_text() == parallel_csv.read_text()

    def test_merge_reports_gap(self, capsys, tmp_path):
        paths = self._write_shards(tmp_path, 3)
        assert main(["sweep-merge", paths[0], paths[2]]) == 1
        assert "gap" in capsys.readouterr().err

    def test_merge_reports_duplicate(self, capsys, tmp_path):
        paths = self._write_shards(tmp_path, 2)
        assert main(["sweep-merge", paths[0], paths[0], paths[1]]) == 1
        err = capsys.readouterr().err
        assert "duplicate" in err or "overlap" in err

    def test_merge_rejects_foreign_shards(self, capsys, tmp_path):
        paths = self._write_shards(tmp_path, 2)
        other = tmp_path / "other.json"
        assert main(["figure2", "--m", "2", "--tasksets", "4", "--seed", "99",
                     "--step", "1.0", "--shard", "2/2",
                     "--shard-out", str(other)]) == 0
        assert main(["sweep-merge", paths[0], str(other)]) == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_merge_missing_file(self, capsys, tmp_path):
        assert main(["sweep-merge", str(tmp_path / "absent.json")]) == 1
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("mangle", [
        lambda rec: rec.pop("item"),                      # missing item key
        lambda rec: rec["rows"][0].pop(),                 # wrong row arity
        lambda rec: rec.pop("rows"),                      # missing rows
    ])
    def test_merge_corrupt_splitsweep_artifact_is_clean_error(
        self, mangle, capsys, tmp_path
    ):
        # Structurally-corrupt splitsweep records must exit 1 with the
        # one-line sweep-merge error, never a raw traceback.
        import json

        base = ["splitsweep", "--m", "2", "--tasksets", "3",
                "--thresholds", "100", "20"]
        path = tmp_path / "split1.json"
        assert main(base + ["--shard", "1/1", "--shard-out", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        mangle(payload["records"][0])
        path.write_text(json.dumps(payload))
        assert main(["sweep-merge", str(path)]) == 1
        assert "sweep-merge:" in capsys.readouterr().err

    def test_merge_splitsweep_shards(self, capsys, tmp_path):
        base = ["splitsweep", "--m", "2", "--tasksets", "4",
                "--thresholds", "100", "20"]
        paths = []
        for index in (1, 2):
            path = tmp_path / f"split{index}.json"
            assert main(base + ["--shard", f"{index}/2",
                                "--shard-out", str(path)]) == 0
            paths.append(str(path))
        assert main(["sweep-merge", *paths]) == 0
        out = capsys.readouterr().out
        assert "Merged preemption-point sweep" in out
        assert "4 task-sets" in out


class TestEngineFlagInterplay:
    def test_checkpoint_resume_with_different_jobs(self, capsys, tmp_path):
        # A sweep checkpointed under --jobs 2 resumes (as a no-op) under
        # --jobs 1 and prints identical counts: the checkpoint is
        # executor-agnostic.
        checkpoint = tmp_path / "cp.json"
        assert main(FIG2_SMALL + ["--jobs", "2",
                                  "--checkpoint", str(checkpoint)]) == 0
        first = capsys.readouterr().out
        assert checkpoint.exists()
        assert main(FIG2_SMALL + ["--checkpoint", str(checkpoint)]) == 0
        second = capsys.readouterr().out
        table = lambda text: [line for line in text.splitlines()
                              if line and line[0].isdigit()]
        assert table(first) == table(second)

    def test_checkpoint_from_other_sweep_rejected(self, capsys, tmp_path):
        checkpoint = tmp_path / "cp.json"
        assert main(FIG2_SMALL + ["--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["figure2", "--m", "2", "--tasksets", "5", "--seed", "3",
                     "--step", "1.0", "--checkpoint", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("figure2:")
        assert "different sweep" in err

    def test_shard_with_checkpoint_and_stream(self, capsys, tmp_path):
        stream = tmp_path / "s.jsonl"
        checkpoint = tmp_path / "cp.json"
        out = tmp_path / "shard.json"
        assert main(FIG2_SMALL + ["--shard", "1/2", "--shard-out", str(out),
                                  "--checkpoint", str(checkpoint),
                                  "--stream", str(stream)]) == 0
        assert out.exists() and checkpoint.exists() and stream.exists()
        lines = stream.read_text().splitlines()
        assert '"type": "header"' in lines[0]
        assert '"type": "summary"' in lines[-1]


class TestAliases:
    """figure2 / group2 / splitsweep are aliases of ``sweep-run``."""

    WORKLOADS = {
        "figure2": (["--m", "2", "--tasksets", "4", "--seed", "3",
                     "--step", "1.0"],
                    {"m": 2, "n_tasksets": 4, "seed": 3, "step": 1.0}),
        "group2": (["--m", "2", "--tasksets", "4", "--seed", "3",
                    "--step", "1.0"],
                   {"m": 2, "n_tasksets": 4, "seed": 3, "step": 1.0}),
        "splitsweep": (["--m", "2", "--tasksets", "3", "--seed", "5",
                        "--utilization", "1.2", "--thresholds", "100", "20",
                        "--overhead", "0.5"],
                       {"m": 2, "n_tasksets": 3, "seed": 5,
                        "utilization": 1.2, "thresholds": [100.0, 20.0],
                        "overhead": 0.5}),
    }

    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_alias_matches_sweep_run(self, kind, capsys, tmp_path):
        import json

        flags, workload = self.WORKLOADS[kind]
        alias_csv, job_csv = tmp_path / "alias.csv", tmp_path / "job.csv"
        assert main([kind, *flags, "--csv", str(alias_csv)]) == 0
        alias_out = capsys.readouterr().out
        job = {"version": 1, "workload": {"kind": kind, **workload}}
        assert main(["sweep-run", "--job-json", json.dumps(job),
                     "--csv", str(job_csv)]) == 0
        job_out = capsys.readouterr().out
        assert alias_csv.read_bytes() == job_csv.read_bytes()
        table = lambda text: text.split("series written to")[0]  # noqa: E731
        assert table(alias_out) == table(job_out)

    @pytest.mark.parametrize("argv", [
        ["figure2", "--m", "0"],
        ["group2", "--step", "0"],
        ["splitsweep", "--overhead", "-1"],
        ["breakdown", "--m", "0"],
        ["breakdown", "--utilization", "-1"],
    ], ids=["figure2", "group2", "splitsweep", "breakdown-m",
            "breakdown-utilization"])
    def test_bad_input_is_one_line_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]}:")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_dry_run_prints_the_alias_job(self, capsys):
        import json

        assert main(["splitsweep", "--m", "3", "--thresholds", "5", "50",
                     "--jobs", "2", "--dry-run"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["workload"]["m"] == 3
        assert printed["workload"]["thresholds"] == [50.0, 5.0]
        assert printed["workload"]["n_tasksets"] == 30  # the kind default
        assert printed["execution"]["jobs"] == 2


class TestSweepOrchestrate:
    """A sweep subcommand given orchestration flags runs orchestrated."""

    ARGS = [
        "figure2", "--m", "2", "--tasksets", "4",
        "--seed", "11", "--step", "0.5", "--workers", "2",
        "--poll-interval", "0.05", "--quiet",
    ]

    def test_orchestrated_run_matches_serial_csv(self, capsys, tmp_path):
        orch_csv = tmp_path / "orch.csv"
        code = main(self.ARGS + [
            "--out", str(tmp_path / "orch"), "--csv", str(orch_csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2 (m=2, 4 task-sets/point, 2 shards)" in out
        assert "orchestrated 2 shard invocations" in out
        ref_csv = tmp_path / "ref.csv"
        assert main(["figure2", "--m", "2", "--tasksets", "4", "--seed", "11",
                     "--step", "0.5", "--csv", str(ref_csv)]) == 0
        assert orch_csv.read_text() == ref_csv.read_text()

    def test_status_after_completion(self, capsys, tmp_path):
        out_dir = tmp_path / "orch"
        assert main(self.ARGS + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["sweep-status", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "manifest state: complete" in out
        assert "100%" in out
        assert "artifacts complete" in out

    def test_status_on_missing_directory_is_clean_error(self, capsys, tmp_path):
        assert main(["sweep-status", str(tmp_path / "nope")]) == 1
        err = capsys.readouterr().err
        assert "sweep-status:" in err

    def test_status_zero_cache_traffic_omits_hit_rate(
        self, capsys, monkeypatch, tmp_path
    ):
        # A fresh orchestration has no cache traffic yet; the hit-rate
        # line must be absent, not a ZeroDivisionError or "nan%".
        from types import SimpleNamespace

        import repro.engine.orchestrator as orchestrator
        from repro.engine.livemerge import ClusterView

        status = SimpleNamespace(
            manifest={"shards": [], "shard_count": 2, "experiment": "figure2"},
            view=ClusterView(total_items=10, done_items=0, shards=()),
            artifacts_done=[],
            state="running",
            complete=False,
        )
        monkeypatch.setattr(orchestrator, "read_status", lambda _out: status)
        assert main(["sweep-status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict cache" not in out
        assert "observed cost" not in out
        assert "nan" not in out
        assert "0/10 items (0%)" in out

    def test_status_reports_mean_item_cost(self, capsys, monkeypatch, tmp_path):
        from types import SimpleNamespace

        import repro.engine.orchestrator as orchestrator
        from repro.engine.livemerge import ClusterView

        status = SimpleNamespace(
            manifest={"shards": [], "shard_count": 2, "experiment": "figure2"},
            view=ClusterView(total_items=10, done_items=4, shards=(),
                             timed_items=4, timed_seconds=0.2),
            artifacts_done=[],
            state="running",
            complete=False,
        )
        monkeypatch.setattr(orchestrator, "read_status", lambda _out: status)
        assert main(["sweep-status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "observed cost: 0.0500s/item\n" in out
        assert "chunk" not in out

    def test_template_without_placeholder_is_clean_error(self, capsys, tmp_path):
        code = main(self.ARGS + [
            "--out", str(tmp_path / "orch"),
            "--backend-template", "ssh worker1",
        ])
        assert code == 1
        assert "{command}" in capsys.readouterr().err

    def test_bad_worker_count_is_clean_error(self, capsys, tmp_path):
        code = main([
            "figure2", "--m", "2", "--tasksets", "2",
            "--workers", "0", "--out", str(tmp_path / "orch"), "--quiet",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("figure2:")


class TestDispatch:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "sweep-merge" in out
        assert "sweep-run" in out
        assert "sweep-status" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

"""The durable result store and its validation layer.

Covers the store's four contracts:

* **Round-trip fidelity** — a published run rebuilds its experiment
  result and exports CSV *bit-identically* to the legacy writers, for
  every registered workload kind (hypothesis varies the seed so the
  row payloads are not a single golden value);
* **Idempotence** — re-publishing the same result (even from a
  differently-sharded artifact set) adds zero rows, and concurrent
  publishers from separate processes serialise safely;
* **Validation** — truncation is flagged incomplete (and the run
  refuses to export), a mutated verdict published again is detected
  as drift down to the exact ``(item, seq)``;
* **Typed failures** — corrupt databases and version skew surface as
  :class:`StoreError` (an :class:`AnalysisError`), never as raw
  :mod:`sqlite3` exceptions.
"""

import json
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import ShardSpec
from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload
from repro.engine.registry import kind_spec
from repro.engine.session import run_job
from repro.engine.store import (
    STORE_VERSION,
    ResultStore,
    open_store,
    publish_artifacts,
    store_path,
)
from repro.engine.validation import (
    check_completeness,
    check_drift,
    validate_store,
)
from repro.exceptions import AnalysisError, JobSpecError, StoreError

#: Tiny per-kind workloads: every kind publishable in well under a
#: second, seeds injected by the tests.
_WORKLOADS = {
    "figure2": dict(m=2, n_tasksets=3, step=1.0),
    "group2": dict(m=2, n_tasksets=3, step=1.0),
    "splitsweep": dict(
        m=2, n_tasksets=2, utilization=1.0,
        thresholds=(100.0, 20.0), overhead=0.0,
    ),
    "sensitivity": dict(m=2, n_tasksets=3, utilization=1.0, max_scale=8.0),
    "simulate": dict(m=2, n_tasksets=3, utilization=2.0, horizon_factor=4.0),
    "timing": dict(core_counts=(2,), n_tasksets=2, utilization_factor=0.5),
}


def _job(kind: str, seed: int = 7, **execution) -> JobSpec:
    return JobSpec(
        workload=Workload(kind=kind, seed=seed, **_WORKLOADS[kind]),
        execution=ExecutionPolicy(**execution),
    )


def _run_and_publish(job: JobSpec, base: Path, name: str = "run"):
    """Execute ``job``, publish its artifact; returns (result, report)."""
    artifact = base / f"{name}.artifact.json"
    result = run_job(job.with_overrides(
        {"execution.shard_out": str(artifact)}
    ))
    report = publish_artifacts(base / "store", [artifact], job=job)
    return result, report


def _csv_bytes(path: Path) -> bytes:
    return Path(path).read_bytes()


class TestRoundTrip:
    """publish -> query -> export is lossless for every kind."""

    @pytest.mark.parametrize("kind", sorted(_WORKLOADS))
    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 2**16))
    def test_export_csv_is_bit_identical(self, kind, seed):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            result, report = _run_and_publish(_job(kind, seed=seed), base)
            legacy = base / "legacy.csv"
            kind_spec(kind).write_csv(result, legacy)
            with open_store(base / "store") as store:
                exported = store.export_csv(report.run_id, base / "db.csv")
                assert _csv_bytes(exported) == _csv_bytes(legacy)
                assert store.row_count(report.run_id) == report.row_count
                record = store.run(report.run_id)
                assert record.kind == kind_spec(kind).artifact_kind
                assert record.fingerprint == _job(kind, seed=seed).fingerprint()

    def test_rebuilt_result_matches_for_sweep_kind(self, tmp_path):
        result, report = _run_and_publish(_job("figure2"), tmp_path)
        with open_store(tmp_path / "store") as store:
            rebuilt = store.result(report.run_id)
        assert rebuilt.points == result.points
        assert rebuilt.methods == result.methods
        assert (rebuilt.m, rebuilt.label, rebuilt.seed) == (
            result.m, result.label, result.seed,
        )

    def test_provenance_records_job_and_engine(self, tmp_path):
        job = _job("timing")
        _, report = _run_and_publish(job, tmp_path)
        with open_store(tmp_path / "store") as store:
            record = store.run(report.run_id)
        assert record.job == job.to_json_dict()
        assert record.engine["store_version"] == STORE_VERSION


class TestIdempotence:
    def test_republish_deduplicates(self, tmp_path):
        job = _job("figure2")
        _, first = _run_and_publish(job, tmp_path, "a")
        _, second = _run_and_publish(job, tmp_path, "b")
        assert not first.deduplicated and first.rows_added > 0
        assert second.deduplicated and second.rows_added == 0
        assert second.run_id == first.run_id
        with open_store(tmp_path / "store") as store:
            assert len(store.runs()) == 1
            assert len(store.publications()) == 2

    def test_sharded_artifacts_deduplicate_against_whole_run(self, tmp_path):
        """Chunk boundaries differ per sharding; canonical rows do not."""
        job = _job("figure2")
        _, whole = _run_and_publish(job, tmp_path)
        shards = []
        for index in range(2):
            out = tmp_path / f"shard{index}.artifact.json"
            run_job(job.with_overrides({
                "execution.shard": ShardSpec(index, 2),
                "execution.shard_out": str(out),
            }))
            shards.append(out)
        report = publish_artifacts(tmp_path / "store", shards, job=job)
        assert report.deduplicated
        assert report.run_id == whole.run_id

    def test_concurrent_publishers_from_separate_processes(self, tmp_path):
        job = _job("splitsweep")
        artifact = tmp_path / "split.artifact.json"
        run_job(job.with_overrides(
            {"execution.shard_out": str(artifact)}
        ))
        store_dir = tmp_path / "store"
        procs = []
        try:
            for _ in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "sweep-db", "publish",
                     str(artifact), "--store-dir", str(store_dir)],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                )
                procs.append(proc)
            for proc in procs:
                _, stderr = proc.communicate(timeout=60)
                assert proc.returncode == 0, stderr.decode()
        finally:
            # A timed-out communicate must not leak the other publisher.
            for proc in procs:
                proc.kill()
                proc.wait()
                proc.stderr.close()
        with open_store(store_dir) as store:
            assert len(store.runs()) == 1
            assert len(store.publications()) == 2
            report = validate_store(store)
            assert report.ok


class TestValidation:
    def test_truncation_is_incomplete_and_export_refuses(self, tmp_path):
        _, report = _run_and_publish(_job("splitsweep"), tmp_path)
        db = store_path(tmp_path / "store")
        with sqlite3.connect(db) as con:
            con.execute(
                "DELETE FROM rows WHERE run_id = ? AND item = 1",
                (report.run_id,),
            )
        with open_store(tmp_path / "store") as store:
            issues = check_completeness(store)
            assert len(issues) == 1
            assert issues[0].run_id == report.run_id
            assert 1 in issues[0].missing_items
            assert issues[0].actual_rows < issues[0].expected_rows
            assert not validate_store(store).ok
            with pytest.raises(StoreError):
                store.result(report.run_id)
            with pytest.raises(StoreError):
                store.export_csv(report.run_id, tmp_path / "refused.csv")

    def test_mutated_verdict_is_detected_as_drift(self, tmp_path):
        job = _job("splitsweep")
        artifact = tmp_path / "split.artifact.json"
        run_job(job.with_overrides(
            {"execution.shard_out": str(artifact)}
        ))
        publish_artifacts(tmp_path / "store", [artifact], job=job)

        payload = json.loads(artifact.read_text())
        row = payload["records"][0]["rows"][0]
        row[3] = not row[3]  # flip one schedulability verdict
        mutated = tmp_path / "mutated.artifact.json"
        mutated.write_text(json.dumps(payload))
        publish_artifacts(tmp_path / "store", [mutated], job=job)

        with open_store(tmp_path / "store") as store:
            assert len(store.runs()) == 2  # different content, new run
            drift = check_drift(store)
        assert len(drift) == 1
        assert (drift[0].item, drift[0].seq) == (0, 0)
        assert drift[0].payloads[0] != drift[0].payloads[1]

    def test_clean_store_validates_ok(self, tmp_path):
        _run_and_publish(_job("sensitivity"), tmp_path)
        with open_store(tmp_path / "store") as store:
            report = validate_store(store)
        assert report.ok
        assert report.runs_checked == 1


class TestTypedFailures:
    def test_corrupt_database_raises_store_error(self, tmp_path):
        db = store_path(tmp_path)
        db.parent.mkdir(parents=True, exist_ok=True)
        db.write_bytes(b"this is not a sqlite database, honest\x00" * 40)
        with pytest.raises(StoreError):
            open_store(tmp_path)

    def test_version_skew_raises_store_error(self, tmp_path):
        open_store(tmp_path).close()
        with sqlite3.connect(store_path(tmp_path)) as con:
            con.execute(
                "UPDATE store_meta SET value = '99' "
                "WHERE key = 'store_version'"
            )
        with pytest.raises(StoreError, match="store version"):
            open_store(tmp_path)

    def test_store_error_is_an_analysis_error(self):
        assert issubclass(StoreError, AnalysisError)

    def test_publishing_incomplete_shard_set_refuses(self, tmp_path):
        job = _job("figure2")
        out = tmp_path / "half.artifact.json"
        run_job(job.with_overrides({
            "execution.shard": ShardSpec(0, 2),
            "execution.shard_out": str(out),
        }))
        with pytest.raises(AnalysisError):
            publish_artifacts(tmp_path / "store", [out], job=job)


class TestPolicyPlumbing:
    def test_publish_round_trips_through_json(self):
        job = _job("figure2", publish=True, store_dir="results/x")
        clone = JobSpec.from_json(job.to_json())
        assert clone.execution.publish is True
        assert clone.execution.store_dir == "results/x"
        assert clone == job

    def test_old_payloads_default_to_not_publishing(self):
        payload = _job("figure2").to_json_dict()
        del payload["execution"]["publish"]
        del payload["execution"]["store_dir"]
        job = JobSpec.from_json_dict(payload)
        assert job.execution.publish is False
        assert job.execution.store_dir is None

    def test_for_worker_strips_publishing(self):
        job = _job("figure2", publish=True, store_dir="results/x")
        worker = job.for_worker()
        assert worker.execution.publish is False
        assert worker.execution.store_dir is None

    def test_sharded_publish_is_rejected(self):
        with pytest.raises(JobSpecError, match="whole-run"):
            _job("figure2", publish=True, shard=ShardSpec(0, 2),
                 shard_out="s.json")
        with pytest.raises(JobSpecError, match="whole-run"):
            _job("figure2", publish=True, items=(0, 1),
                 shard=None, shard_out="s.json")


class TestCli:
    def test_session_run_publishes_via_policy(self, tmp_path):
        job = _job("timing", publish=True,
                   store_dir=str(tmp_path / "store"))
        run_job(job)
        with open_store(tmp_path / "store") as store:
            runs = store.runs()
        assert len(runs) == 1
        assert runs[0].kind == "timing"

    def test_sweep_db_validate_exit_codes(self, tmp_path, capsys):
        _, report = _run_and_publish(_job("simulate"), tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["sweep-db", "validate", "--store-dir", store_dir]) == 0
        with sqlite3.connect(store_path(store_dir)) as con:
            con.execute("DELETE FROM rows WHERE item = 0")
        assert main(["sweep-db", "validate", "--store-dir", store_dir]) == 1
        out = capsys.readouterr().out
        assert "incomplete" in out

    def test_sweep_db_export_csv_matches_legacy(self, tmp_path, capsys):
        result, report = _run_and_publish(_job("sensitivity"), tmp_path)
        legacy = tmp_path / "legacy.csv"
        kind_spec("sensitivity").write_csv(result, legacy)
        assert main([
            "sweep-db", "export-csv",
            "--store-dir", str(tmp_path / "store"),
            "--csv", str(tmp_path / "db.csv"),
        ]) == 0
        assert _csv_bytes(tmp_path / "db.csv") == _csv_bytes(legacy)

    def test_store_dir_implies_publish(self, tmp_path):
        assert main([
            "sweep-run", "--job-json", _job("timing").to_json(indent=None),
            "--store-dir", str(tmp_path / "store"),
        ]) == 0
        with open_store(tmp_path / "store") as store:
            assert len(store.runs()) == 1

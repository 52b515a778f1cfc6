"""Unit tests for :mod:`repro.engine` — executors, sweep, checkpoints,
shard artifacts and streams.  (Cross-executor bit-identity lives in
``tests/test_engine_conformance.py``.)"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.analyzer import AnalysisMethod
from repro.engine.checkpoint import (
    FORMAT_VERSION,
    SweepCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine.executors import (
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.registry import merge_artifacts
from repro.engine.shard import (
    ShardArtifact,
    ShardSpec,
    load_shard,
    parse_shard,
    save_shard,
)
from repro.engine.sweep import (
    SweepEngine,
    SweepSpec,
    _batches,
    _contiguous_runs,
    _run_chunk,
)
from repro.exceptions import AnalysisError, CheckpointError, ShardError
from repro.generator.profiles import GROUP1


def _spec(**overrides):
    defaults = dict(
        m=2,
        utilizations=(0.5, 1.5),
        n_tasksets=6,
        profile=GROUP1,
        seed=42,
        label="engine-test",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestExecutors:
    def test_make_executor(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(3)
        assert isinstance(pool, MultiprocessExecutor)
        assert pool.jobs == 3
        with pytest.raises(AnalysisError):
            make_executor(0)
        with pytest.raises(AnalysisError):
            MultiprocessExecutor(-1)

    def test_serial_order(self):
        executor = SerialExecutor()
        assert list(executor.map_unordered(abs, [-3, 1, -2])) == [3, 1, 2]

    def test_pool_empty_payloads(self):
        assert list(MultiprocessExecutor(2).map_unordered(abs, [])) == []



def _mark_start_and_finish(payload):
    """Touch ``<index>.start``, sleep, then touch ``<index>.done``."""
    directory, index, delay = payload
    Path(directory, f"{index}.start").touch()
    time.sleep(delay)
    Path(directory, f"{index}.done").touch()
    return index


def _reject_negative(payload):
    if payload < 0:
        raise AnalysisError(f"negative payload {payload}")
    return payload


class TestExecutorLifecycle:
    """Every executor is a context manager with a uniform close()."""

    @pytest.mark.parametrize(
        "factory",
        [SerialExecutor, lambda: MultiprocessExecutor(2)],
        ids=["serial", "process"],
    )
    def test_context_manager_closes(self, factory):
        with factory() as executor:
            assert sorted(executor.map_unordered(abs, [-2, 1])) == [1, 2]
        with pytest.raises(AnalysisError):
            list(executor.map_unordered(abs, [-1]))

    @pytest.mark.parametrize(
        "factory",
        [SerialExecutor, lambda: MultiprocessExecutor(2)],
        ids=["serial", "process"],
    )
    def test_close_is_idempotent(self, factory):
        executor = factory()
        executor.close()
        executor.close()

    def test_pool_persists_across_map_calls(self):
        # The pool is created once and reused, not respawned per call.
        with MultiprocessExecutor(2) as executor:
            assert list(executor.map_unordered(abs, [-1])) == [1]
            pool_before = executor._pool
            assert pool_before is not None
            assert list(executor.map_unordered(abs, [-2])) == [2]
            assert executor._pool is pool_before

    def test_closed_executor_rejects_reentry(self):
        executor = SerialExecutor()
        executor.close()
        with pytest.raises(AnalysisError):
            executor.__enter__()

    def test_drained_pool_closes_gracefully(self):
        # A fully-drained executor has nothing queued, so close() only
        # sends the workers their exit sentinels; only an abandoned
        # iterator makes teardown cancel queued payloads.
        executor = MultiprocessExecutor(2)
        assert sorted(executor.map_unordered(abs, [-3, 4])) == [3, 4]
        assert executor._clean
        executor.close()

    def test_abandoned_iterator_marks_pool_for_termination(self):
        executor = MultiprocessExecutor(2)
        iterator = executor.map_unordered(abs, [-1, -2, -3])
        next(iterator)
        iterator.close()
        assert not executor._clean
        # A later fully-drained call must not launder the abandonment:
        # half-finished tasks may still be queued, so close() has to
        # keep cancelling them.
        assert sorted(executor.map_unordered(abs, [-5])) == [5]
        assert not executor._clean
        executor.close()

    def test_close_after_abandonment_lets_running_payloads_finish(self, tmp_path):
        # Teardown signals no worker: a worker killed while it writes a
        # result would hold the result queue's lock for good and wedge
        # the pool's threads (multiprocessing.Pool.terminate() did, on
        # a loaded single CPU).  Every payload that started finishes;
        # the abandoned call's queued rest never starts.
        executor = MultiprocessExecutor(2)
        payloads = [(str(tmp_path), i, 0.0 if i == 0 else 0.1)
                    for i in range(16)]
        iterator = executor.map_unordered(_mark_start_and_finish, payloads)
        next(iterator)
        iterator.close()
        executor.close()
        started = {path.stem for path in sorted(tmp_path.glob("*.start"))}
        finished = {path.stem for path in sorted(tmp_path.glob("*.done"))}
        assert started == finished
        assert 0 < len(finished) < len(payloads)

    def test_failing_payload_raises_its_error_and_the_pool_stays_usable(self):
        with MultiprocessExecutor(2) as executor:
            with pytest.raises(AnalysisError, match="negative payload -1"):
                list(executor.map_unordered(_reject_negative, [1, -1]))
            assert sorted(executor.map_unordered(abs, [-2, 3])) == [2, 3]

    def test_dead_worker_fails_the_call_instead_of_hanging(self):
        from concurrent.futures.process import BrokenProcessPool

        with MultiprocessExecutor(2) as executor:
            with pytest.raises(BrokenProcessPool):
                list(executor.map_unordered(os._exit, [3]))


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            _spec(n_tasksets=0)
        with pytest.raises(AnalysisError):
            _spec(methods=())

    def test_rng_independent_of_order(self):
        spec = _spec()

        def draws(rng) -> list[int]:
            return [int(rng.integers(0, 1 << 30)) for _ in range(4)]

        a = draws(spec.taskset_rng(1, 3))
        b = draws(spec.taskset_rng(0, 0))
        c = draws(spec.taskset_rng(1, 3))
        assert a == c
        assert a != b
        # The item's stream is numpy's spawn-keyed SeedSequence stream.
        assert a == draws(np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(1, 3))))

    def test_fingerprint_sensitivity(self):
        base = _spec()
        assert base.fingerprint() == _spec().fingerprint()
        assert base.fingerprint() != _spec(seed=43).fingerprint()
        assert base.fingerprint() != _spec(n_tasksets=7).fingerprint()
        assert (
            base.fingerprint()
            != _spec(methods=(AnalysisMethod.FP_IDEAL,)).fingerprint()
        )


class TestChunking:
    def test_contiguous_runs(self):
        assert _contiguous_runs([]) == []
        assert _contiguous_runs([0, 1, 2, 5, 6, 9]) == [(0, 3), (5, 7), (9, 10)]

    def test_chunks_respect_size_and_gaps(self):
        assert _batches([0, 1, 2, 5, 6, 9], 2) == [
            [(0, 2)], [(2, 3)], [(5, 7)], [(9, 10)],
        ]

    def test_strided_items_batch_into_shared_payloads(self):
        # A shard's item set is strided: single-item runs must share an
        # executor payload up to the chunk size, not go one-per-task.
        assert _batches(range(0, 12, 2), 3) == [
            [(0, 1), (2, 3), (4, 5)],
            [(6, 7), (8, 9), (10, 11)],
        ]

    def test_bad_chunk_size(self):
        with pytest.raises(AnalysisError):
            SweepEngine(chunk_size=0)


class TestEngineRun:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return SweepEngine().run(_spec())

    def test_result_shape(self, serial_result):
        assert serial_result.m == 2
        assert serial_result.label == "engine-test"
        assert [p.utilization for p in serial_result.points] == [0.5, 1.5]
        assert all(p.n_tasksets == 6 for p in serial_result.points)

    def test_parallel_bit_identical(self, serial_result):
        parallel = SweepEngine(executor=MultiprocessExecutor(3)).run(_spec())
        assert [p.schedulable for p in parallel.points] == [
            p.schedulable for p in serial_result.points
        ]

    def test_chunking_does_not_change_counts(self, serial_result):
        chunked = SweepEngine(chunk_size=5).run(_spec())
        assert [p.schedulable for p in chunked.points] == [
            p.schedulable for p in serial_result.points
        ]


def _records(spec, start, stop):
    """Items ``start .. stop - 1`` evaluated as one chunk, as records."""
    done = _run_chunk(
        (spec.evaluate, start, stop, spec.payloads(range(start, stop)))
    )
    return {item: rows for item, rows, _seconds, _cache in done}


class TestCheckpoint:
    def test_duplicate_items_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        record = {"item": 3, "rows": [[True]]}
        path.write_text(json.dumps({
            "version": FORMAT_VERSION, "fingerprint": "x",
            "records": [record, record],
        }))
        with pytest.raises(CheckpointError, match="twice"):
            load_checkpoint(path)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cp.json"
        assert load_checkpoint(path) is None
        checkpoint = SweepCheckpoint("abc", {1: [[False, True]], 0: [[True, True]]})
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == "abc"
        assert loaded.records == {0: [[True, True]], 1: [[False, True]]}
        assert loaded.covered_items() == {0, 1}
        assert [r["item"] for r in json.loads(path.read_text())["records"]] == [0, 1]

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_text(json.dumps({"version": 99, "fingerprint": "x", "records": []}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_json_raises_checkpoint_error(self, tmp_path):
        # A write torn mid-file (pre-atomic-save legacy, disk-full, ...)
        # must surface as CheckpointError, not json.JSONDecodeError.
        path = tmp_path / "cp.json"
        save_checkpoint(path, SweepCheckpoint("abc", {0: [[True]], 1: [[False]]}))
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_fields_raise_checkpoint_error(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"version": FORMAT_VERSION, "fingerprint": "x"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_text(
            json.dumps(
                {
                    "version": FORMAT_VERSION,
                    "fingerprint": "x",
                    "records": [{"start": 0, "counts": {}}],
                }
            )
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_clean_stale_tmps_cleans_only_its_targets_temps(self, tmp_path):
        from repro.engine import clean_stale_tmps

        target = tmp_path / "cp.json"
        target.write_text("{}")
        orphan_a = tmp_path / "cp.json.1234.tmp"
        orphan_b = tmp_path / "cp.json.5678.tmp"
        unrelated = tmp_path / "other.json.1.tmp"
        for path in (orphan_a, orphan_b, unrelated):
            path.write_text("half-written")
        removed = clean_stale_tmps(target)
        assert sorted(removed) == sorted([orphan_a, orphan_b])
        assert unrelated.exists()  # only the target's own temps go
        assert target.exists()
        # A directory is a target like any other: the temps inside it
        # belong to other writers and stay.
        assert clean_stale_tmps(tmp_path) == []
        assert unrelated.exists()

    def test_clean_stale_tmps_order_is_host_independent(
        self, tmp_path, monkeypatch
    ):
        # DET001 regression: the sweep (and its returned list) must not
        # depend on the order the filesystem yields directory entries —
        # simulate a worst-case host whose globs come back reversed.
        import pathlib

        from repro.engine import clean_stale_tmps

        orphans = [
            tmp_path / f"cp.json.{pid}.tmp" for pid in (31, 7, 204, 99)
        ]
        for path in orphans:
            path.write_text("half-written")

        real_glob = pathlib.Path.glob

        def reversed_glob(self, pattern):
            return iter(sorted(real_glob(self, pattern), reverse=True))

        monkeypatch.setattr(pathlib.Path, "glob", reversed_glob)
        assert clean_stale_tmps(tmp_path / "cp.json") == sorted(orphans)

    def test_engine_resume_cleans_orphaned_tmps(self, tmp_path):
        checkpoint = tmp_path / "cp.json"
        orphan = tmp_path / "cp.json.424242.tmp"
        orphan.write_text("killed mid-write")
        SweepEngine(checkpoint_path=checkpoint).run(_spec(n_tasksets=2))
        assert not orphan.exists()
        assert checkpoint.exists()

    def test_save_is_atomic(self, tmp_path):
        # The tmp file must never linger, and an existing checkpoint
        # survives a failed overwrite attempt (rename is all-or-nothing).
        path = tmp_path / "cp.json"
        save_checkpoint(path, SweepCheckpoint("abc", {}))
        leftovers = [p for p in sorted(tmp_path.iterdir()) if p.name != "cp.json"]
        assert leftovers == []
        assert load_checkpoint(path).fingerprint == "abc"

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.json"
        full = SweepEngine().run(spec)

        # Simulate an interrupted run: a checkpoint covering only the
        # first 5 of the 12 work items.
        save_checkpoint(
            path, SweepCheckpoint(spec.fingerprint(), _records(spec, 0, 5))
        )

        resumed = SweepEngine(checkpoint_path=path).run(spec)
        assert [p.schedulable for p in resumed.points] == [
            p.schedulable for p in full.points
        ]
        # A re-run over a complete checkpoint is a no-op with the same result.
        cached = SweepEngine(checkpoint_path=path).run(spec)
        assert [p.schedulable for p in cached.points] == [
            p.schedulable for p in full.points
        ]

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepEngine(checkpoint_path=path).run(_spec())
        with pytest.raises(AnalysisError):
            SweepEngine(checkpoint_path=path).run(_spec(seed=43))

    def test_oversized_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        spec = _spec()
        SweepEngine(checkpoint_path=path).run(spec)
        smaller = _spec(n_tasksets=2)
        save_checkpoint(
            path,
            SweepCheckpoint(smaller.fingerprint(), load_checkpoint(path).records),
        )
        with pytest.raises(AnalysisError):
            SweepEngine(checkpoint_path=path).run(smaller)

    def test_resume_after_partial_chunk(self, tmp_path):
        # An interrupted run checkpointed mid-chunk-schedule: covered
        # items end in the middle of what a chunk_size=4 run would
        # schedule as one chunk.  Resuming with a *different* chunk size
        # must slice the remainder afresh and still match bit-for-bit.
        spec = _spec()  # 2 points x 6 task-sets = 12 items
        full = SweepEngine().run(spec)
        path = tmp_path / "sweep.json"
        partial = {**_records(spec, 0, 3), **_records(spec, 7, 9)}
        save_checkpoint(path, SweepCheckpoint(spec.fingerprint(), partial))

        resumed = SweepEngine(checkpoint_path=path, chunk_size=4).run(spec)
        assert [p.schedulable for p in resumed.points] == [
            p.schedulable for p in full.points
        ]
        # The final checkpoint covers exactly the full item space.
        records = load_checkpoint(path).records
        assert sorted(records) == list(range(spec.total_items))

    def test_version_mismatch_rejected_by_engine(self, tmp_path):
        path = tmp_path / "sweep.json"
        spec = _spec()
        SweepEngine(checkpoint_path=path).run(spec)
        payload = json.loads(path.read_text())
        payload["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            SweepEngine(checkpoint_path=path).run(spec)


class TestShardSpec:
    def test_validation(self):
        with pytest.raises(ShardError):
            ShardSpec(0, 0)
        with pytest.raises(ShardError):
            ShardSpec(-1, 4)
        with pytest.raises(ShardError):
            ShardSpec(4, 4)

    def test_partition_is_disjoint_and_covering(self):
        for count in (1, 2, 3, 5):
            shards = [ShardSpec(i, count) for i in range(count)]
            items = [set(s.items(17)) for s in shards]
            union = set().union(*items)
            assert union == set(range(17))
            assert sum(len(s) for s in items) == 17  # pairwise disjoint

    def test_parse_shard(self):
        assert parse_shard("1/1") == ShardSpec(0, 1)
        assert parse_shard("2/4") == ShardSpec(1, 4)
        for bad in ("0/4", "5/4", "4", "a/b", "1/0", "-1/4", "1//2", ""):
            with pytest.raises(ShardError):
                parse_shard(bad)

    def test_labels_are_one_based(self):
        assert ShardSpec(1, 4).label == "2/4"


class TestShardMerge:
    def _artifacts(self, spec, count, tmp_path):
        paths = []
        for index in range(count):
            path = tmp_path / f"s{index}.json"
            SweepEngine().run(spec, shard=ShardSpec(index, count), shard_out=path)
            paths.append(path)
        return paths

    def test_roundtrip(self, tmp_path):
        spec = _spec()
        path = self._artifacts(spec, 2, tmp_path)[0]
        artifact = load_shard(path)
        assert artifact.kind == "sweep"
        assert artifact.fingerprint == spec.fingerprint()
        assert artifact.shard == ShardSpec(0, 2)
        assert artifact.total_items == spec.total_items
        assert artifact.covered_items() == set(range(0, spec.total_items, 2))

    def test_merge_detects_gap(self, tmp_path):
        spec = _spec()
        paths = self._artifacts(spec, 3, tmp_path)
        with pytest.raises(ShardError, match="gap"):
            merge_artifacts([paths[0], paths[2]])

    def test_merge_detects_duplicate_shard(self, tmp_path):
        spec = _spec()
        paths = self._artifacts(spec, 2, tmp_path)
        with pytest.raises(ShardError, match="duplicate|overlap"):
            merge_artifacts([paths[0], paths[0], paths[1]])

    def test_merge_rejects_mixed_sweeps(self, tmp_path):
        a = self._artifacts(_spec(), 2, tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        b = self._artifacts(_spec(seed=99), 2, other)
        with pytest.raises(ShardError, match="fingerprint"):
            merge_artifacts([a[0], b[1]])

    def test_merge_rejects_inconsistent_counts(self, tmp_path):
        spec = _spec()
        half = self._artifacts(spec, 2, tmp_path)[0]
        third = tmp_path / "third.json"
        SweepEngine().run(spec, shard=ShardSpec(1, 3), shard_out=third)
        with pytest.raises(ShardError, match="shard count"):
            merge_artifacts([half, third])

    def test_load_rejects_version_and_kind_skew(self, tmp_path):
        spec = _spec()
        path = self._artifacts(spec, 1, tmp_path)[0]
        payload = json.loads(path.read_text())
        payload["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="version"):
            load_shard(path)
        payload["version"] = FORMAT_VERSION
        payload["kind"] = "mystery"
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="kind"):
            load_shard(path)
        with pytest.raises(ShardError):
            load_shard(tmp_path / "nope.json")

    def test_merge_rejects_items_outside_slice(self, tmp_path):
        spec = _spec()
        paths = self._artifacts(spec, 2, tmp_path)
        corrupt = load_shard(paths[0])
        corrupt.records[1] = [(True, True, True)]  # shard 2's item
        with pytest.raises(ShardError, match="outside its slice"):
            merge_artifacts([corrupt, load_shard(paths[1])])

    def test_merge_empty_input(self):
        with pytest.raises(ShardError, match="no shard"):
            merge_artifacts([])

    def test_merge_dispatches_on_artifact_kind(self, tmp_path):
        from repro.experiments.splitsweep import SplitSweepPoint

        artifact = ShardArtifact(
            kind="splitsweep",
            fingerprint="f",
            shard=ShardSpec(0, 1),
            total_items=1,
            meta={"thresholds": [10.0]},
            records={0: [[1, 1, 0.5, True]]},
        )
        path = save_shard(tmp_path / "sp.json", artifact)
        assert merge_artifacts([path]) == [SplitSweepPoint(
            threshold=10.0, n_tasksets=1, schedulable=1, mean_q=1.0,
            mean_utilization=0.5,
        )]

    def test_merge_rejects_rows_the_reduction_cannot_fold(self, tmp_path):
        spec = _spec()
        paths = self._artifacts(spec, 1, tmp_path)
        corrupt = load_shard(paths[0])
        corrupt.records[0] = [(True,)]  # one verdict for three methods
        with pytest.raises(ShardError, match="corrupt"):
            merge_artifacts([corrupt])


class TestSubShardMerge:
    """Multiple disjoint artifacts per shard index are mergeable: the
    sub-shard artifacts of an orchestration directory written by an
    earlier version still merge, and overlaps and gaps are still
    refused item by item."""

    @staticmethod
    def _sub_shards(spec, tmp_path, subsets):
        """Shard 1/2's artifact split into one artifact per item subset,
        as an elastic split wrote them, plus the whole shard 2/2."""
        whole0 = tmp_path / "s0.json"
        SweepEngine().run(spec, shard=ShardSpec(0, 2), shard_out=whole0)
        records = load_shard(whole0).records
        paths = []
        for j, subset in enumerate(subsets):
            artifact = load_shard(whole0)
            artifact.records = {item: records[item] for item in subset}
            paths.append(save_shard(tmp_path / f"s0-{j}.json", artifact))
        whole1 = tmp_path / "s1.json"
        SweepEngine().run(spec, shard=ShardSpec(1, 2), shard_out=whole1)
        return paths + [whole1]

    def test_disjoint_sub_shards_merge(self, tmp_path):
        spec = _spec()
        items = list(ShardSpec(0, 2).items(spec.total_items))
        paths = self._sub_shards(spec, tmp_path, (items[0::2], items[1::2]))
        merged = merge_artifacts(paths)
        reference = SweepEngine().run(spec)
        assert [p.schedulable for p in merged.points] == [
            p.schedulable for p in reference.points
        ]

    def test_overlapping_sub_shards_rejected(self, tmp_path):
        spec = _spec()
        items = list(ShardSpec(0, 2).items(spec.total_items))
        paths = self._sub_shards(spec, tmp_path, (items, items[:2]))
        with pytest.raises(ShardError, match="overlap"):
            merge_artifacts(paths)

    def test_sub_shards_with_gap_rejected(self, tmp_path):
        spec = _spec()
        items = list(ShardSpec(0, 2).items(spec.total_items))
        paths = self._sub_shards(spec, tmp_path, (items[:2],))
        with pytest.raises(ShardError, match="gap|uncovered"):
            merge_artifacts(paths)


class TestVersionOneFiles:
    """Files written before the per-item record (format version 1)
    fail with one typed, one-line error — never a traceback and never
    a misread.  A result-store database, which no version reads any
    more, is left on disk unopened."""

    def _one_line_error(self, argv, capsys, command):
        from repro.cli import main

        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{command}:")
        assert len(captured.err.splitlines()) == 1
        assert "version 1" in captured.err

    def test_version_one_checkpoint(self, tmp_path, capsys):
        spec = _spec()
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({
            "version": 1, "fingerprint": spec.fingerprint(),
            "records": [{"start": 0, "stop": 2, "counts": {"0": {"LP-ILP": 1}}}],
        }))
        with pytest.raises(CheckpointError, match="version 1"):
            SweepEngine(checkpoint_path=path).run(spec)
        self._one_line_error(
            ["figure2", "--m", "2", "--tasksets", "2", "--step", "0.5",
             "--checkpoint", str(path)],
            capsys, "figure2",
        )

    def test_version_one_shard_artifact(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "version": 1, "kind": "sweep", "fingerprint": "f",
            "shard": {"index": 0, "count": 1}, "total_items": 2, "meta": {},
            "records": [{"start": 0, "stop": 2, "counts": {}}],
        }))
        with pytest.raises(ShardError, match="version 1"):
            load_shard(path)
        self._one_line_error(["sweep-merge", str(path)], capsys, "sweep-merge")

    def test_version_one_stream(self, tmp_path):
        from repro.engine.streaming import read_stream

        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({
            "type": "header", "version": 1, "kind": "sweep",
            "fingerprint": "f", "shard": None, "total_items": 2, "meta": {},
        }) + "\n" + json.dumps({
            "type": "chunk", "start": 0, "stop": 2, "counts": {},
        }) + "\n")
        with pytest.raises(AnalysisError, match="version 1"):
            read_stream(path)

    def test_version_one_store(self, tmp_path, monkeypatch, capsys):
        import sqlite3

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        store = tmp_path / "results" / "store.db"
        store.parent.mkdir()
        con = sqlite3.connect(store)
        with con:
            con.execute("CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT)")
            con.execute("INSERT INTO store_meta VALUES ('store_version', '1')")
        con.close()
        before = store.read_bytes()
        assert main(["figure2", "--m", "2", "--tasksets", "2", "--step", "0.5",
                     "--csv", "run.csv"]) == 0
        assert store.read_bytes() == before
        assert sorted(path.name for path in store.parent.iterdir()) == ["store.db"]

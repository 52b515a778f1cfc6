"""Unit tests for the persistent verdict cache (:mod:`repro.engine.vcache`)."""

import dataclasses
import json
import math
import os
import threading

import pytest

import repro.engine.sweep as sweep_module
import repro.engine.vcache as vcache_module
from repro.cli import main
from repro.core.analyzer import AnalysisMethod
from repro.engine.executors import MultiprocessExecutor, SerialExecutor
from repro.engine.shard import ShardSpec
from repro.engine.streaming import iter_stream
from repro.engine.sweep import (
    SweepEngine,
    SweepSpec,
    _evaluate_sweep_item,
    _run_chunk,
)
from repro.engine.vcache import (
    CACHE_VERSION,
    VerdictCache,
    _parse_entry,
    cache_stats,
    compact_cache,
    gc_cache,
)
from repro.exceptions import CacheError
from repro.generator.profiles import GROUP1, GROUP2


def _spec(**overrides) -> SweepSpec:
    fields = dict(
        m=2, utilizations=(0.5, 1.0, 1.5), n_tasksets=4, profile=GROUP1,
        seed=2016,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def _row(i: int) -> tuple[bool, ...]:
    """A distinct three-method row per ``i`` in 0..7."""
    return tuple(bool(i >> bit & 1) for bit in range(3))


def _strip(result):
    return dataclasses.replace(result, elapsed_seconds=0.0)


def _stream_totals(stream) -> tuple[int, int]:
    hits = misses = 0
    for line in iter_stream(stream):
        if line.get("type") == "item" and "cache" in line:
            hits += line["cache"]["hits"]
            misses += line["cache"]["misses"]
    return hits, misses


class TestVerdictKey:
    def test_deterministic(self):
        key = _spec().item_key(1, 2)
        assert key == _spec().item_key(1, 2)
        assert len(key) == 64 and int(key, 16) >= 0

    def test_every_argument_is_keyed(self, monkeypatch):
        base = _spec().item_key(1, 2)
        # Two points with one utilisation: only the point index differs.
        flat = _spec(utilizations=(1.0, 1.0))
        variants = [
            _spec(profile=GROUP2).item_key(1, 2),
            _spec(seed=2017).item_key(1, 2),
            _spec(utilizations=(0.5, 1.25, 1.5)).item_key(1, 2),
            _spec().item_key(1, 3),
            _spec(m=4).item_key(1, 2),
            _spec(methods=(AnalysisMethod.FP_IDEAL,)).item_key(1, 2),
            _spec(mu_method="ilp").item_key(1, 2),
            _spec(rho_solver="ilp").item_key(1, 2),
        ]
        assert flat.item_key(0, 2) != flat.item_key(1, 2)
        monkeypatch.setattr(vcache_module, "_SALT", "0" * 64)
        variants.append(_spec().item_key(1, 2))
        assert len({base, *variants}) == len(variants) + 1

    def test_label_and_item_count_are_not_keyed(self):
        assert (_spec(label="other", n_tasksets=9).item_key(1, 2)
                == _spec().item_key(1, 2))

    @pytest.mark.parametrize("variant", ["chunk-size", "jobs", "shard"])
    def test_execution_is_not_keyed(self, variant, tmp_path):
        spec = _spec()
        cache_dir = tmp_path / "c"
        SweepEngine(chunk_size=1, cache="readwrite", cache_dir=cache_dir).run(spec)
        # Fewer task-sets per point under another label: every item is
        # one the fill already holds.
        subset = dataclasses.replace(spec, label="other", n_tasksets=2)
        executor = MultiprocessExecutor(2) if variant == "jobs" else SerialExecutor()
        shard = ShardSpec(1, 2) if variant == "shard" else ShardSpec(0, 1)
        stream = tmp_path / "warm.jsonl"
        with executor:
            SweepEngine(
                executor=executor,
                chunk_size=3 if variant == "chunk-size" else None,
                cache="read", cache_dir=cache_dir,
            ).run(subset, shard=shard, stream=stream)
        planned = len(list(shard.items(subset.total_items)))
        assert _stream_totals(stream) == (planned, 0)


class TestVerdictRoundTrip:
    def test_real_analysis_round_trips(self, tmp_path):
        spec = _spec()
        fresh = _evaluate_sweep_item((spec, 5))
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            assert _evaluate_sweep_item((spec, 5), writer) == fresh
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert [reader.get(spec.item_key(1, 1))] == fresh

    def test_malformed_verdict_raises_cache_error(self):
        for entry in (
            {"version": CACHE_VERSION, "key": "k"},  # no row
            {"version": CACHE_VERSION, "key": "k", "row": []},
            {"version": CACHE_VERSION, "key": "k", "row": [1, 0]},
            {"version": CACHE_VERSION, "key": "k", "row": "true"},
        ):
            with pytest.raises(CacheError):
                _parse_entry(json.dumps(entry))


class TestVerdictCache:
    def test_mode_off_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            VerdictCache(tmp_path, mode="off")
        with pytest.raises(CacheError):
            VerdictCache(tmp_path, mode="bogus")

    def test_read_mode_on_missing_dir_is_empty(self, tmp_path):
        cache = VerdictCache(tmp_path / "nope", mode="read")
        assert cache.get("deadbeef") is None
        assert cache.stats() == {"hits": 0, "misses": 1}
        assert not (tmp_path / "nope").exists()  # read mode creates nothing

    def test_read_mode_put_is_noop(self, tmp_path):
        (tmp_path / "c").mkdir()
        cache = VerdictCache(tmp_path / "c", mode="read")
        cache.put("k", _row(5))
        assert sorted((tmp_path / "c").glob("*.jsonl")) == []

    def test_cache_path_must_be_a_directory(self, tmp_path):
        bogus = tmp_path / "file"
        bogus.write_text("not a directory")
        with pytest.raises(CacheError):
            VerdictCache(bogus, mode="read")

    def test_cached_hit_is_bit_identical_across_all_methods(self, tmp_path):
        spec = _spec()
        fresh = _evaluate_sweep_item((spec, 5))
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            first = _evaluate_sweep_item((spec, 5), writer)
        assert first == fresh
        assert writer.stats() == {"hits": 0, "misses": 1}
        # A brand-new handle must serve the row from disk.
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert _evaluate_sweep_item((spec, 5), reader) == fresh
        assert reader.stats() == {"hits": 1, "misses": 0}

    def test_distinct_parameters_never_share_verdicts(self, tmp_path):
        on_two, on_four = _spec(m=2), _spec(m=4)
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            _evaluate_sweep_item((on_two, 5), cache)
            # Same task-set, different m: a miss, not a stale hit.
            row = _evaluate_sweep_item((on_four, 5), cache)
        assert cache.misses == 2
        assert row == _evaluate_sweep_item((on_four, 5))

    def test_put_skips_existing_key(self, tmp_path):
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            cache.put("k", _row(5))
            cache.put("k", _row(5))
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        assert len(shard.read_text().splitlines()) == 1


class TestStaleEntrySweeping:
    def _populate(self, directory):
        spec = _spec()
        with VerdictCache(directory, mode="readwrite") as cache:
            row = _evaluate_sweep_item((spec, 5), cache)
        shard = sorted(directory.glob("shard-*.jsonl"))[0]
        return spec, row, shard

    def test_corrupt_and_skewed_lines_are_swept(self, tmp_path):
        spec, row, shard = self._populate(tmp_path / "c")
        good = shard.read_text()
        bad = tmp_path / "c" / "shard-999.jsonl"
        bad.write_text(
            "{\"version\": 2, \"key\": \"trunc\", \"ro"  # torn line
            + "\n[1, 2, 3]\n"  # not an object
            + json.dumps({"version": CACHE_VERSION + 1, "key": "skew",
                          "row": [True]}) + "\n"
            + json.dumps({"version": CACHE_VERSION, "row": [True]}) + "\n"
            + json.dumps({"version": CACHE_VERSION, "key": "norow"})
            + "\n"
        )
        reader = VerdictCache(tmp_path / "c", mode="read")
        hit = _evaluate_sweep_item((spec, 5), reader)
        assert hit == row  # the good entry survives its bad neighbours
        assert reader.swept == 5
        assert good == shard.read_text()  # sweeping never rewrites shards

    def test_truncated_entry_is_recomputed_and_restored(self, tmp_path):
        # Regression: a writer killed mid-line leaves a torn final
        # entry.  It must be swept, recomputed, and re-persisted — not
        # crash the reader, not serve garbage.
        spec, row, shard = self._populate(tmp_path / "c")
        text = shard.read_text()
        shard.write_text(text[: len(text) // 2])  # tear the only entry
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            recomputed = _evaluate_sweep_item((spec, 5), cache)
            assert cache.swept == 1
            assert cache.stats() == {"hits": 0, "misses": 1}
        assert recomputed == row
        # The repaired cache now serves the row again.
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert _evaluate_sweep_item((spec, 5), reader) == row
        assert reader.stats() == {"hits": 1, "misses": 0}


def _count_parses(monkeypatch) -> list:
    parses = []
    real = vcache_module._parse_entry
    monkeypatch.setattr(
        vcache_module, "_parse_entry",
        lambda line: parses.append(1) or real(line),
    )
    return parses


def _lookup(key, cache):
    """A stand-in ``evaluate``: one cache lookup per item."""
    return [cache.get(key)]


class TestLazyOpen:
    """Open cost is pinned to the index, not the entries: opening a
    cache and looking up one key decodes exactly one entry, however
    many the directory holds."""

    N = 8

    def _populate(self, directory):
        with VerdictCache(directory, mode="readwrite") as writer:
            for i in range(self.N):
                writer.put(f"k{i}", _row(i))

    def _garble(self, directory, key):
        shard = sorted(directory.glob("shard-*.jsonl"))[0]
        lines = shard.read_bytes().split(b"\n")
        for i, line in enumerate(lines):
            if f'"key":"{key}"'.encode() in line:
                # Garble the entry in place (same length: every other
                # entry's indexed offset stays valid).
                lines[i] = line[:-10] + b"x" * 10
        shard.write_bytes(b"\n".join(lines))

    def test_one_lookup_decodes_one_payload(self, tmp_path, monkeypatch):
        self._populate(tmp_path / "c")
        parses = _count_parses(monkeypatch)
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("k3") == _row(3)
        assert len(parses) == 1  # not N: the other entries stay on disk
        assert reader.swept == 0  # the index covered the whole shard
        for i in range(self.N):
            reader.get(f"k{i}")
        assert len(parses) == self.N  # k3 re-served from memory
        assert reader.stats() == {"hits": self.N + 1, "misses": 0}

    def test_corrupt_neighbour_does_not_poison_other_entries(self, tmp_path):
        self._populate(tmp_path / "c")
        self._garble(tmp_path / "c", "k5")
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("k3") == _row(3)
        assert reader.get("k5") is None  # stale entry → recorded miss
        assert reader.stale == 1
        assert reader.get("k6") == _row(6)
        assert reader.stats() == {"hits": 2, "misses": 1}

    def test_missing_index_falls_back_to_full_scan(self, tmp_path):
        self._populate(tmp_path / "c")
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        shard.with_suffix(".idx").unlink()  # foreign-writer shard
        reader = VerdictCache(tmp_path / "c", mode="read")
        for i in range(self.N):
            assert reader.get(f"k{i}") == _row(i)
        assert reader.stats() == {"hits": self.N, "misses": 0}
        assert reader.swept == 0

    def test_run_chunk_attributes_health_counters(self, tmp_path):
        # Each item's stream-line deltas are the shared handle's
        # counters diffed around that item alone.
        self._populate(tmp_path / "c")
        self._garble(tmp_path / "c", "k5")
        cache = VerdictCache(tmp_path / "c", mode="read")
        done = _run_chunk((_lookup, 0, 3, ["k3", "k5", "k6"]), cache)
        assert [stats for *_, stats in done] == [
            {"hits": 1, "misses": 0, "swept": 0, "stale": 0},
            {"hits": 0, "misses": 1, "swept": 0, "stale": 1},
            {"hits": 1, "misses": 0, "swept": 0, "stale": 0},
        ]
        assert cache.stats() == {"hits": 2, "misses": 1}


class TestCacheSessionCounters:
    """Hit/miss counts of the sweep's per-item loop: one lookup per
    item, keyed on the item's coordinates."""

    @staticmethod
    def _run(spec, cache):
        items = range(spec.total_items)
        done = _run_chunk(
            (_evaluate_sweep_item, 0, spec.total_items, spec.payloads(items)),
            cache,
        )
        rows = [rows for _, rows, _, _ in done]
        hits = sum(stats["hits"] for *_, stats in done)
        misses = sum(stats["misses"] for *_, stats in done)
        return rows, (hits, misses)

    @staticmethod
    def _uncached(spec):
        return [_evaluate_sweep_item((spec, i)) for i in range(spec.total_items)]

    def test_cold_readwrite_serves_repeats(self, tmp_path):
        spec = _spec()
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            cold, first = self._run(spec, cache)
            repeat, second = self._run(spec, cache)
        assert first == (0, spec.total_items)
        assert second == (spec.total_items, 0)
        assert cold == repeat == self._uncached(spec)

    def test_empty_read_only_cache_misses_every_item(self, tmp_path):
        spec = _spec()
        (tmp_path / "empty").mkdir()
        cache = VerdictCache(tmp_path / "empty", mode="read")
        rows, counters = self._run(spec, cache)
        assert counters == (0, spec.total_items)
        assert rows == self._uncached(spec)

    def test_warm_cache_serves_every_item(self, tmp_path, monkeypatch):
        spec = _spec()
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            cold, _ = self._run(spec, cache)

        def no_generation(*args, **kwargs):
            raise AssertionError("a cache hit generated a task-set")

        monkeypatch.setattr(sweep_module, "generate_taskset", no_generation)
        warm, counters = self._run(spec, VerdictCache(tmp_path / "c", mode="read"))
        assert counters == (spec.total_items, 0)
        assert warm == cold


class TestCoordinateKeys:
    """Keys are the items' generation coordinates plus a code salt."""

    def test_warm_read_replay_never_generates(self, tmp_path, monkeypatch):
        spec = _spec()
        cache_dir = tmp_path / "c"
        cold = SweepEngine(cache="readwrite", cache_dir=cache_dir).run(spec)

        def no_generation(*args, **kwargs):
            raise AssertionError("a warm replay generated a task-set")

        monkeypatch.setattr(sweep_module, "generate_taskset", no_generation)
        warm = SweepEngine(cache="read", cache_dir=cache_dir).run(spec)
        assert _strip(warm) == _strip(cold)

    def test_smaller_run_is_served_by_a_larger_fill(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        base = ["figure2", "--m", "2", "--step", "0.25", "--seed", "2016"]
        assert main([*base, "--tasksets", "40", "--cache", "readwrite",
                     "--cache-dir", cache_dir,
                     "--csv", str(tmp_path / "fill.csv")]) == 0
        assert main([*base, "--tasksets", "20", "--cache", "read",
                     "--cache-dir", cache_dir,
                     "--stream", str(tmp_path / "warm.jsonl"),
                     "--csv", str(tmp_path / "warm.csv")]) == 0
        assert main([*base, "--tasksets", "20",
                     "--csv", str(tmp_path / "cold.csv")]) == 0
        capsys.readouterr()
        hits, misses = _stream_totals(tmp_path / "warm.jsonl")
        assert misses == 0 and hits == 5 * 20
        assert (tmp_path / "warm.csv").read_bytes() == (
            tmp_path / "cold.csv").read_bytes()

    def test_changed_salt_misses_every_item(self, tmp_path, monkeypatch):
        spec = _spec()
        cache_dir = tmp_path / "c"
        cold = SweepEngine(cache="readwrite", cache_dir=cache_dir).run(spec)
        monkeypatch.setattr(vcache_module, "_SALT", "0" * 64)
        stream = tmp_path / "warm.jsonl"
        warm = SweepEngine(cache="read", cache_dir=cache_dir).run(
            spec, stream=stream
        )
        assert _stream_totals(stream) == (0, spec.total_items)
        assert _strip(warm) == _strip(cold)

    def test_version_1_entries_are_swept_never_served(self, tmp_path):
        # A version-1 entry under the item's current key, indexed the
        # way version 1 indexed it: the old index is ignored, the entry
        # is swept, and the lookup misses.
        spec = _spec()
        key = spec.item_key(1, 1)
        (tmp_path / "c").mkdir()
        line = json.dumps(
            {"version": 1, "key": key, "verdict": {"m": 2, "analyses": []}},
            separators=(",", ":"),
        ) + "\n"
        (tmp_path / "c" / "old.jsonl").write_text(line)
        (tmp_path / "c" / "old.idx").write_text(json.dumps(
            {"v": 1, "key": key, "off": 0, "len": len(line)}) + "\n")
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get(key) is None
        assert reader.swept == 1
        assert cache_stats(tmp_path / "c")["entries"] == 0
        compacted = compact_cache(tmp_path / "c")
        assert (compacted["entries"], compacted["swept"]) == (0, 1)
        assert not (tmp_path / "c" / "old.jsonl").exists()

    def test_writer_restamps_a_version_1_marker(self, tmp_path):
        (tmp_path / "c").mkdir()
        meta = tmp_path / "c" / "CACHE_META.json"
        meta.write_text(json.dumps(
            {"format": "repro.vcache/sharded-jsonl", "cache_version": 1}))
        VerdictCache(tmp_path / "c", mode="read")
        assert json.loads(meta.read_text())["cache_version"] == 1
        VerdictCache(tmp_path / "c", mode="readwrite")
        assert json.loads(meta.read_text())["cache_version"] == CACHE_VERSION


class TestCacheLifecycle:
    def test_stats_summarises_without_decoding(self, tmp_path, monkeypatch):
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            for i in range(4):
                writer.put(f"k{i}", _row(i))
        parses = _count_parses(monkeypatch)
        summary = cache_stats(tmp_path / "c")
        assert summary["entries"] == 4
        assert summary["files"] == 1
        assert summary["live_writers"] == 1  # our own pid-named shard
        assert summary["swept"] == 0
        assert summary["data_bytes"] > 0 and summary["index_bytes"] > 0
        assert parses == []  # stats never touches an indexed entry

    def test_stats_requires_an_existing_directory(self, tmp_path):
        with pytest.raises(CacheError):
            cache_stats(tmp_path / "nope")

    def test_compact_folds_quiescent_shards_bit_identically(self, tmp_path):
        on_two, on_four = _spec(m=2), _spec(m=4)
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            row_two = _evaluate_sweep_item((on_two, 5), writer)
            row_four = _evaluate_sweep_item((on_four, 5), writer)
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        # Quiescent source: not named after a live pid.
        shard.rename(tmp_path / "c" / "legacy.jsonl")
        shard.with_suffix(".idx").rename(tmp_path / "c" / "legacy.idx")
        summary = compact_cache(tmp_path / "c")
        assert summary["entries"] == 2
        assert summary["files_removed"] == 1
        assert summary["swept"] == 0
        assert [p.name for p in sorted((tmp_path / "c").glob("*.jsonl"))] == [
            "compact-0.jsonl"
        ]
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert _evaluate_sweep_item((on_two, 5), reader) == row_two
        assert _evaluate_sweep_item((on_four, 5), reader) == row_four
        assert reader.stats() == {"hits": 2, "misses": 0}

    def test_compact_sweeps_torn_lines_and_dedupes(self, tmp_path):
        (tmp_path / "c").mkdir()
        line = json.dumps(
            {"version": CACHE_VERSION, "key": "dup", "row": list(_row(5))},
            separators=(",", ":"),
        )
        (tmp_path / "c" / "a.jsonl").write_text(line + "\n" + line[: 20])
        (tmp_path / "c" / "b.jsonl").write_text(line + "\n")
        summary = compact_cache(tmp_path / "c")
        assert summary["entries"] == 1  # duplicates fold to one line
        assert summary["swept"] == 1  # the torn tail never travels
        compacted = tmp_path / "c" / summary["output"]
        assert compacted.read_text() == line + "\n"

    def test_compact_keeps_live_writer_shards(self, tmp_path):
        writer = VerdictCache(tmp_path / "c", mode="readwrite")
        writer.put("before", _row(1))
        summary = compact_cache(tmp_path / "c")
        assert summary["files_kept"] == 1
        assert summary["files_removed"] == 0
        shard = tmp_path / "c" / f"shard-{os.getpid()}.jsonl"
        assert shard.exists()  # an active writer may append at any moment
        writer.put("after", _row(2))
        writer.close()
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("before") == _row(1)
        assert reader.get("after") == _row(2)
        assert reader.swept == 0

    def test_compaction_racing_active_writer_loses_nothing(self, tmp_path):
        # Compaction concurrent with a live writer must lose no
        # committed entry and write no torn line.
        total = 60
        writer = VerdictCache(tmp_path / "c", mode="readwrite")
        errors = []

        def write_all():
            try:
                for i in range(total):
                    writer.put(f"k{i}", _row(i % 8))
            # Thread boundary: relayed to the main thread, which asserts
            # errors == [] below — nothing is swallowed.
            # repro-lint: disable=ERR002
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        thread = threading.Thread(target=write_all)
        thread.start()
        summaries = [compact_cache(tmp_path / "c") for _ in range(5)]
        thread.join()
        writer.close()
        assert errors == []
        # Every pass saw only complete lines (entry writes are atomic
        # at line granularity) and kept the live writer's shard.
        assert all(s["swept"] == 0 for s in summaries)
        final = compact_cache(tmp_path / "c")
        assert final["entries"] == total
        reader = VerdictCache(tmp_path / "c", mode="read")
        for i in range(total):
            assert reader.get(f"k{i}") == _row(i % 8)
        assert reader.stats() == {"hits": total, "misses": 0}
        assert reader.swept == 0 and reader.stale == 0

    @staticmethod
    def _gc_fixture(directory):
        """An old, a new and a live shard of one entry each."""
        directory.mkdir()
        line = json.dumps(
            {"version": CACHE_VERSION, "key": "old", "row": list(_row(1))},
            separators=(",", ":"),
        ) + "\n"
        old = directory / "old.jsonl"
        old.write_text(line)
        two_days_ago = os.path.getmtime(old) - 2 * 86400
        os.utime(old, (two_days_ago, two_days_ago))
        new = directory / "new.jsonl"
        new.write_text(line)
        live = directory / f"shard-{os.getpid()}.jsonl"
        live.write_text(line)
        return old, new, live

    def test_gc_by_age_and_by_size(self, tmp_path):
        old, new, live = self._gc_fixture(tmp_path / "c")
        by_age = gc_cache(tmp_path / "c", max_age_days=1.0)
        assert by_age["files_removed"] == 1
        assert not old.exists() and new.exists() and live.exists()
        by_size = gc_cache(tmp_path / "c", max_bytes=0)
        assert by_size["files_removed"] == 1
        assert not new.exists()
        assert live.exists()  # a live pid's shard is never collected

    def test_gc_requires_a_criterion(self, tmp_path):
        (tmp_path / "c").mkdir()
        with pytest.raises(CacheError):
            gc_cache(tmp_path / "c")

    @pytest.mark.parametrize("budget", [
        dict(max_bytes=-1),
        dict(max_age_days=-1.0),
        dict(max_age_days=math.nan),
        dict(max_age_days=math.inf),
    ], ids=["negative-bytes", "negative-age", "nan-age", "inf-age"])
    def test_gc_rejects_a_negative_or_non_finite_budget(self, budget, tmp_path):
        shards = self._gc_fixture(tmp_path / "c")
        with pytest.raises(CacheError, match="finite number >= 0"):
            gc_cache(tmp_path / "c", **budget)
        assert all(shard.exists() for shard in shards)

    @pytest.mark.parametrize("flags", [
        ["--max-bytes", "-1"],
        ["--max-age-days", "-1"],
        ["--max-age-days", "nan"],
    ], ids=["negative-bytes", "negative-age", "nan-age"])
    def test_gc_cli_bad_budget_is_one_line_error(self, flags, tmp_path, capsys):
        shards = self._gc_fixture(tmp_path / "c")
        code = main(["sweep-cache", "gc", "--cache-dir", str(tmp_path / "c"),
                     *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("sweep-cache: ") and err.count("\n") == 1
        assert all(shard.exists() for shard in shards)

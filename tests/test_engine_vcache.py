"""Unit tests for the persistent verdict cache (:mod:`repro.engine.vcache`)."""

import json
import math
import os
import threading

import numpy as np
import pytest

from repro.core.analyzer import AnalysisMethod, analyze_taskset_multi
from repro.core.results import MultiAnalysis, TaskAnalysis, TasksetAnalysis
import repro.engine.vcache as vcache_module
from repro.engine.vcache import (
    CACHE_VERSION,
    VerdictCache,
    _verdict_from_json,
    _verdict_to_json,
    cache_stats,
    compact_cache,
    gc_cache,
    verdict_key,
)
from repro.exceptions import CacheError
from repro.generator.profiles import GROUP1
from repro.generator.taskset_gen import generate_taskset

ALL_METHODS = tuple(AnalysisMethod)


def _taskset(seed=1, utilization=1.2):
    return generate_taskset(np.random.default_rng(seed), utilization, GROUP1)


class TestVerdictKey:
    def test_deterministic(self):
        ts = _taskset()
        args = (ts, 2, ("fp-ideal",), "search", "assignment", True)
        assert verdict_key(*args) == verdict_key(*args)

    def test_every_argument_is_keyed(self):
        ts = _taskset()
        base = verdict_key(ts, 2, ("fp-ideal",), "search", "assignment", True)
        variants = [
            verdict_key(ts, 4, ("fp-ideal",), "search", "assignment", True),
            verdict_key(ts, 2, ("lp-max",), "search", "assignment", True),
            verdict_key(ts, 2, ("fp-ideal",), "ilp", "assignment", True),
            verdict_key(ts, 2, ("fp-ideal",), "search", "ilp", True),
            verdict_key(ts, 2, ("fp-ideal",), "search", "assignment", False),
            verdict_key(
                _taskset(seed=2), 2, ("fp-ideal",), "search", "assignment", True
            ),
        ]
        assert len({base, *variants}) == len(variants) + 1


class TestVerdictRoundTrip:
    def test_real_analysis_round_trips(self):
        multi = analyze_taskset_multi(_taskset(), 2, ALL_METHODS)
        payload = json.loads(json.dumps(_verdict_to_json(multi)))
        assert _verdict_from_json(payload) == multi

    def test_infinite_response_round_trips(self):
        # json serialises inf as the (non-standard but symmetric)
        # ``Infinity`` literal; the cache relies on that round-trip.
        multi = MultiAnalysis(
            m=2,
            analyses=(
                TasksetAnalysis(
                    method="fp-ideal",
                    m=2,
                    tasks=(
                        TaskAnalysis(
                            name="t",
                            schedulable=False,
                            response=float("inf"),
                            iterations=7,
                            delta_m=1.5,
                            delta_m_minus_1=0.5,
                            preemptions=3,
                            analyzed=True,
                        ),
                    ),
                ),
            ),
        )
        restored = _verdict_from_json(
            json.loads(json.dumps(_verdict_to_json(multi)))
        )
        assert restored == multi
        assert math.isinf(restored.analyses[0].tasks[0].response)

    def test_malformed_verdict_raises_cache_error(self):
        with pytest.raises(CacheError):
            _verdict_from_json({"m": 2})  # no analyses
        with pytest.raises(CacheError):
            _verdict_from_json({"m": 2, "analyses": [{"method": "x"}]})


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
        cache.put("k", analyze_taskset_multi(_taskset(), 2, ALL_METHODS))
        assert sorted((tmp_path / "c").glob("*.jsonl")) == []

    def test_cache_path_must_be_a_directory(self, tmp_path):
        bogus = tmp_path / "file"
        bogus.write_text("not a directory")
        with pytest.raises(CacheError):
            VerdictCache(bogus, mode="read")

    def test_cached_hit_is_bit_identical_across_all_methods(self, tmp_path):
        ts = _taskset()
        fresh = analyze_taskset_multi(ts, 2, ALL_METHODS)
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            first = analyze_taskset_multi(ts, 2, ALL_METHODS, cache=writer)
        assert first == fresh
        assert writer.stats() == {"hits": 0, "misses": 1}
        # A brand-new handle must serve the verdict from disk.
        reader = VerdictCache(tmp_path / "c", mode="read")
        hit = analyze_taskset_multi(ts, 2, ALL_METHODS, cache=reader)
        assert hit == fresh
        assert reader.stats() == {"hits": 1, "misses": 0}

    def test_distinct_parameters_never_share_verdicts(self, tmp_path):
        ts = _taskset()
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            analyze_taskset_multi(ts, 2, ALL_METHODS, cache=cache)
            # Same task-set, different m: a miss, not a stale hit.
            on_four = analyze_taskset_multi(ts, 4, ALL_METHODS, cache=cache)
        assert cache.misses == 2
        assert on_four == analyze_taskset_multi(ts, 4, ALL_METHODS)

    def test_put_skips_existing_key(self, tmp_path):
        multi = analyze_taskset_multi(_taskset(), 2, ALL_METHODS)
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            cache.put("k", multi)
            cache.put("k", multi)
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        assert len(shard.read_text().splitlines()) == 1


class TestStaleEntrySweeping:
    def _populate(self, directory):
        ts = _taskset()
        with VerdictCache(directory, mode="readwrite") as cache:
            verdict = analyze_taskset_multi(ts, 2, ALL_METHODS, cache=cache)
        shard = sorted(directory.glob("shard-*.jsonl"))[0]
        return ts, verdict, shard

    def test_corrupt_and_skewed_lines_are_swept(self, tmp_path):
        ts, verdict, shard = self._populate(tmp_path / "c")
        good = shard.read_text()
        bad = tmp_path / "c" / "shard-999.jsonl"
        bad.write_text(
            "{\"version\": 1, \"key\": \"trunc\", \"verd"  # torn line
            + "\n[1, 2, 3]\n"  # not an object
            + json.dumps({"version": CACHE_VERSION + 1, "key": "skew",
                          "verdict": {}}) + "\n"
            + json.dumps({"version": CACHE_VERSION, "verdict": {}}) + "\n"
            + json.dumps({"version": CACHE_VERSION, "key": "noverdict"})
            + "\n"
        )
        reader = VerdictCache(tmp_path / "c", mode="read")
        hit = analyze_taskset_multi(ts, 2, ALL_METHODS, cache=reader)
        assert hit == verdict  # the good entry survives its bad neighbours
        assert reader.swept == 5
        assert good == shard.read_text()  # sweeping never rewrites shards

    def test_truncated_entry_is_recomputed_and_restored(self, tmp_path):
        # Regression: a writer killed mid-line leaves a torn final
        # entry.  It must be swept, recomputed, and re-persisted — not
        # crash the reader, not serve garbage.
        ts, verdict, shard = self._populate(tmp_path / "c")
        text = shard.read_text()
        shard.write_text(text[: len(text) // 2])  # tear the only entry
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            recomputed = analyze_taskset_multi(ts, 2, ALL_METHODS, cache=cache)
            assert cache.swept == 1
            assert cache.stats() == {"hits": 0, "misses": 1}
        assert recomputed == verdict
        # The repaired cache now serves the verdict again.
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert analyze_taskset_multi(ts, 2, ALL_METHODS, cache=reader) == verdict
        assert reader.stats() == {"hits": 1, "misses": 0}


def _tiny_verdict(response=1.0, m=2):
    return MultiAnalysis(
        m=m,
        analyses=(
            TasksetAnalysis(
                method="fp-ideal",
                m=m,
                tasks=(
                    TaskAnalysis(
                        name="t", schedulable=True,
                        response=response, iterations=1,
                    ),
                ),
            ),
        ),
    )


class TestLazyOpen:
    """Satellite regression: open cost is pinned to the index, not the
    payloads — opening a cache and looking up one key decodes exactly
    one verdict, however many entries the directory holds."""

    N = 8

    def _populate(self, directory):
        with VerdictCache(directory, mode="readwrite") as writer:
            for i in range(self.N):
                writer.put(f"k{i}", _tiny_verdict(response=float(i + 1)))

    def test_one_lookup_decodes_one_payload(self, tmp_path, monkeypatch):
        self._populate(tmp_path / "c")
        decodes = []
        real = vcache_module._verdict_from_json
        monkeypatch.setattr(
            vcache_module, "_verdict_from_json",
            lambda payload: decodes.append(1) or real(payload),
        )
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("k3") == _tiny_verdict(response=4.0)
        assert len(decodes) == 1  # not N: the other payloads stay on disk
        assert reader.swept == 0  # the index covered the whole shard
        for i in range(self.N):
            reader.get(f"k{i}")
        assert len(decodes) == self.N  # k3 re-served from memory
        assert reader.stats() == {"hits": self.N + 1, "misses": 0}

    def test_corrupt_neighbour_does_not_poison_other_entries(self, tmp_path):
        self._populate(tmp_path / "c")
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        raw = shard.read_bytes()
        lines = raw.split(b"\n")
        for i, line in enumerate(lines):
            if b'"key":"k5"' in line:
                # Garble the payload in place (same length: every other
                # entry's indexed offset stays valid).
                lines[i] = line[:-10] + b"x" * 10
        shard.write_bytes(b"\n".join(lines))
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("k3") == _tiny_verdict(response=4.0)
        assert reader.get("k5") is None  # stale payload → recorded miss
        assert reader.stale == 1
        assert reader.get("k6") == _tiny_verdict(response=7.0)
        assert reader.stats() == {"hits": 2, "misses": 1}

    def test_missing_index_falls_back_to_full_scan(self, tmp_path):
        self._populate(tmp_path / "c")
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        shard.with_suffix(".idx").unlink()  # legacy / foreign-writer shard
        reader = VerdictCache(tmp_path / "c", mode="read")
        for i in range(self.N):
            assert reader.get(f"k{i}") == _tiny_verdict(response=float(i + 1))
        assert reader.stats() == {"hits": self.N, "misses": 0}
        assert reader.swept == 0

    def test_cache_session_attributes_health_counters(self, tmp_path):
        from repro.engine.sweep import _CacheSession

        self._populate(tmp_path / "c")
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        raw = shard.read_bytes()
        lines = raw.split(b"\n")
        for i, line in enumerate(lines):
            if b'"key":"k5"' in line:
                lines[i] = line[:-10] + b"x" * 10
        shard.write_bytes(b"\n".join(lines))
        session = _CacheSession(VerdictCache(tmp_path / "c", mode="read"))
        assert session.get("k3") is not None
        assert session.get("k5") is None
        assert session.stats() == {
            "hits": 1, "misses": 1, "swept": 0, "stale": 1,
        }


class TestCacheSessionCounters:
    """Hit/miss counts of the sweep's per-item loop on a corpus with
    duplicates: a repeat is a hit exactly when its first occurrence
    was stored before it."""

    @staticmethod
    def _duplicate_heavy():
        # Three distinct task-sets, each appearing twice (identical
        # generator draws give identical fingerprints).
        base = [_taskset(seed=2016 + i) for i in range(3)]
        dupes = [_taskset(seed=2016 + i) for i in range(3)]
        return [base[0], dupes[0], base[1], base[2], dupes[1], dupes[2]]

    @staticmethod
    def _analyse(tasksets, cache):
        from repro.engine.sweep import _CacheSession

        session = _CacheSession(cache)
        results = [analyze_taskset_multi(ts, 2, cache=session) for ts in tasksets]
        return results, (session.hits, session.misses)

    def test_cold_readwrite_serves_repeats(self, tmp_path):
        tasksets = self._duplicate_heavy()
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            results, counters = self._analyse(tasksets, cache)
        assert counters == (3, 3)
        assert results == [analyze_taskset_multi(ts, 2) for ts in tasksets]

    def test_empty_read_only_cache_misses_every_item(self, tmp_path):
        tasksets = self._duplicate_heavy()
        (tmp_path / "empty").mkdir()
        cache = VerdictCache(tmp_path / "empty", mode="read")
        results, counters = self._analyse(tasksets, cache)
        assert counters == (0, 6)
        assert results == [analyze_taskset_multi(ts, 2) for ts in tasksets]

    def test_warm_cache_serves_every_item(self, tmp_path):
        tasksets = self._duplicate_heavy()
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            cold, _ = self._analyse(tasksets, cache)
        warm, counters = self._analyse(
            tasksets, VerdictCache(tmp_path / "c", mode="read")
        )
        assert counters == (6, 0)
        assert warm == cold


class TestCacheLifecycle:
    def test_stats_summarises_without_decoding(self, tmp_path, monkeypatch):
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            for i in range(4):
                writer.put(f"k{i}", _tiny_verdict(response=float(i)))
        decodes = []
        real = vcache_module._verdict_from_json
        monkeypatch.setattr(
            vcache_module, "_verdict_from_json",
            lambda payload: decodes.append(1) or real(payload),
        )
        summary = cache_stats(tmp_path / "c")
        assert summary["entries"] == 4
        assert summary["files"] == 1
        assert summary["live_writers"] == 1  # our own pid-named shard
        assert summary["swept"] == 0
        assert summary["data_bytes"] > 0 and summary["index_bytes"] > 0
        assert decodes == []  # stats never touches verdict payloads

    def test_stats_requires_an_existing_directory(self, tmp_path):
        with pytest.raises(CacheError):
            cache_stats(tmp_path / "nope")

    def test_compact_folds_quiescent_shards_bit_identically(self, tmp_path):
        ts = _taskset()
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            on_two = analyze_taskset_multi(ts, 2, ALL_METHODS, cache=writer)
            on_four = analyze_taskset_multi(ts, 4, ALL_METHODS, cache=writer)
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
        assert analyze_taskset_multi(ts, 2, ALL_METHODS, cache=reader) == on_two
        assert analyze_taskset_multi(ts, 4, ALL_METHODS, cache=reader) == on_four
        assert reader.stats() == {"hits": 2, "misses": 0}

    def test_compact_sweeps_torn_lines_and_dedupes(self, tmp_path):
        (tmp_path / "c").mkdir()
        line = json.dumps(
            {"version": CACHE_VERSION, "key": "dup",
             "verdict": _verdict_to_json(_tiny_verdict())},
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
        writer.put("before", _tiny_verdict(response=1.0))
        summary = compact_cache(tmp_path / "c")
        assert summary["files_kept"] == 1
        assert summary["files_removed"] == 0
        shard = tmp_path / "c" / f"shard-{os.getpid()}.jsonl"
        assert shard.exists()  # an active writer may append at any moment
        writer.put("after", _tiny_verdict(response=2.0))
        writer.close()
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("before") == _tiny_verdict(response=1.0)
        assert reader.get("after") == _tiny_verdict(response=2.0)
        assert reader.swept == 0

    def test_compaction_racing_active_writer_loses_nothing(self, tmp_path):
        # Satellite regression: compaction concurrent with a live
        # writer must lose no committed verdict and write no torn line.
        total = 60
        writer = VerdictCache(tmp_path / "c", mode="readwrite")
        errors = []

        def write_all():
            try:
                for i in range(total):
                    writer.put(f"k{i}", _tiny_verdict(response=float(i)))
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
            assert reader.get(f"k{i}") == _tiny_verdict(response=float(i))
        assert reader.stats() == {"hits": total, "misses": 0}
        assert reader.swept == 0 and reader.stale == 0

    def test_gc_by_age_and_by_size(self, tmp_path):
        (tmp_path / "c").mkdir()
        line = json.dumps(
            {"version": CACHE_VERSION, "key": "old",
             "verdict": _verdict_to_json(_tiny_verdict())},
            separators=(",", ":"),
        ) + "\n"
        old = tmp_path / "c" / "old.jsonl"
        old.write_text(line)
        two_days_ago = os.path.getmtime(old) - 2 * 86400
        os.utime(old, (two_days_ago, two_days_ago))
        new = tmp_path / "c" / "new.jsonl"
        new.write_text(line)
        live = tmp_path / "c" / f"shard-{os.getpid()}.jsonl"
        live.write_text(line)
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

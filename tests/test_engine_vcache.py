"""Unit tests for the persistent verdict cache (:mod:`repro.engine.vcache`)."""

import dataclasses
import json
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


#: A pid no process has: above every kernel's pid limit.  (``0`` will
#: not do: ``os.kill(0, 0)`` signals the caller's process group.)
DEAD_PID = 2**31 - 1


def _row(i: int) -> tuple[bool, ...]:
    """A distinct three-method row per ``i`` in 0..7."""
    return tuple(bool(i >> bit & 1) for bit in range(3))


def _line(key: str, row: tuple[bool, ...]) -> str:
    """An entry's JSONL line, newline excluded."""
    return json.dumps(
        {"version": CACHE_VERSION, "key": key, "row": list(row)},
        separators=(",", ":"),
    )


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

    def test_put_writes_one_line_to_one_file(self, tmp_path):
        with VerdictCache(tmp_path / "c", mode="readwrite") as cache:
            cache.put("k", _row(5))
        shard = f"shard-{os.getpid()}.jsonl"
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == [
            "CACHE_META.json", shard,
        ]
        assert (tmp_path / "c" / shard).read_text() == _line("k", _row(5)) + "\n"


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

    def test_writer_terminates_a_torn_tail(self, tmp_path):
        # This pid's shard ends in a fragment (an earlier process of the
        # same pid was killed mid-append): the next entry starts on a
        # line of its own, so only the fragment is swept.
        directory = tmp_path / "c"
        directory.mkdir()
        shard = directory / f"shard-{os.getpid()}.jsonl"
        shard.write_text(_line("torn", _row(1))[:30])
        with VerdictCache(directory, mode="readwrite") as cache:
            cache.put("k", _row(2))
        assert shard.read_text() == (
            _line("torn", _row(1))[:30] + "\n" + _line("k", _row(2)) + "\n")
        reader = VerdictCache(directory, mode="read")
        assert reader.get("k") == _row(2)
        assert reader.swept == 1


def _lookup(key, cache):
    """A stand-in ``evaluate``: one cache lookup per item."""
    return [cache.get(key)]


class TestLazyOpen:
    """A handle reads the cache files once, on its first lookup: a bad
    line costs only its own entry, and its count lands on the item
    whose lookup read it."""

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
                lines[i] = line[:-10] + b"x" * 10
        shard.write_bytes(b"\n".join(lines))

    def test_corrupt_neighbour_does_not_poison_other_entries(self, tmp_path):
        self._populate(tmp_path / "c")
        self._garble(tmp_path / "c", "k5")
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("k3") == _row(3)
        assert reader.swept == 1  # the garbled line, read with the rest
        assert reader.get("k5") is None  # swept entry → recorded miss
        assert reader.get("k6") == _row(6)
        assert reader.stats() == {"hits": 2, "misses": 1}

    def test_run_chunk_attributes_health_counters(self, tmp_path):
        # Each item's stream-line deltas are the shared handle's
        # counters diffed around that item alone.
        self._populate(tmp_path / "c")
        self._garble(tmp_path / "c", "k5")
        cache = VerdictCache(tmp_path / "c", mode="read")
        done = _run_chunk((_lookup, 0, 3, ["k3", "k5", "k6"]), cache)
        assert [stats for *_, stats in done] == [
            {"hits": 1, "misses": 0, "swept": 1},  # its lookup read the files
            {"hits": 0, "misses": 1, "swept": 0},
            {"hits": 1, "misses": 0, "swept": 0},
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


class TestRunScopedHandles:
    """Each engine run reads the cache through a handle of its own, in
    the parent and in every pool worker, so a later run in one process
    sees the cache files as they are when it starts."""

    @staticmethod
    def _filled(tmp_path):
        spec = _spec()
        directory = tmp_path / "c"
        SweepEngine(cache="readwrite", cache_dir=directory).run(spec)
        return spec, directory

    @staticmethod
    def _totals(engine, spec, stream):
        engine.run(spec, stream=stream)
        return _stream_totals(stream)

    def test_a_later_run_does_not_reuse_an_earlier_runs_entries(self, tmp_path):
        spec, directory = self._filled(tmp_path)
        reader = SweepEngine(cache="read", cache_dir=directory)
        assert self._totals(reader, spec, tmp_path / "a.jsonl") == (
            spec.total_items, 0)
        for path in sorted(directory.glob("*.jsonl")):
            path.unlink()
        assert self._totals(reader, spec, tmp_path / "b.jsonl") == (
            0, spec.total_items)
        # Workers forked now would inherit the parent's handle.
        with MultiprocessExecutor(2) as pool:
            forked = SweepEngine(executor=pool, cache="read", cache_dir=directory)
            assert self._totals(forked, spec, tmp_path / "c.jsonl") == (
                0, spec.total_items)

    def test_a_reused_pool_opens_a_handle_per_run(self, tmp_path):
        spec, directory = self._filled(tmp_path)
        with MultiprocessExecutor(2) as pool:
            engine = SweepEngine(executor=pool, cache="read", cache_dir=directory)
            assert self._totals(engine, spec, tmp_path / "a.jsonl") == (
                spec.total_items, 0)
            for path in sorted(directory.glob("*.jsonl")):
                path.unlink()
            assert self._totals(engine, spec, tmp_path / "b.jsonl") == (
                0, spec.total_items)


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
        # A version-1 cache: its marker, and an entry under the item's
        # current key with the sidecar index version 1 wrote.  The
        # entry is swept and the lookup misses.
        spec = _spec()
        key = spec.item_key(1, 1)
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "CACHE_META.json").write_text(json.dumps(
            {"format": "repro.vcache/sharded-jsonl", "cache_version": 1}))
        line = json.dumps(
            {"version": 1, "key": key, "verdict": {"m": 2, "analyses": []}},
            separators=(",", ":"),
        ) + "\n"
        old = tmp_path / "c" / f"shard-{DEAD_PID}.jsonl"
        old.write_text(line)
        old.with_suffix(".idx").write_text(json.dumps(
            {"v": 1, "key": key, "off": 0, "len": len(line)}) + "\n")
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get(key) is None
        assert reader.swept == 1
        assert cache_stats(tmp_path / "c")["entries"] == 0
        compacted = compact_cache(tmp_path / "c")
        assert (compacted["entries"], compacted["swept"]) == (0, 1)
        assert not old.exists() and not old.with_suffix(".idx").exists()

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
    def test_stats_counts_entries_and_swept_lines(self, tmp_path):
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            for i in range(4):
                writer.put(f"k{i}", _row(i))
        (tmp_path / "c" / f"shard-{DEAD_PID}.jsonl").write_text(
            _line("k0", _row(0)) + "\n" + _line("k9", _row(1))[:20]
        )
        summary = cache_stats(tmp_path / "c")
        assert summary["entries"] == 4  # k0 twice is one entry
        assert summary["swept"] == 1  # the torn line
        assert summary["files"] == 2
        assert summary["live_writers"] == 1  # our own pid-named shard
        assert summary["data_bytes"] == sum(
            p.stat().st_size for p in (tmp_path / "c").glob("*.jsonl"))

    def test_stats_requires_an_existing_directory(self, tmp_path):
        with pytest.raises(CacheError):
            cache_stats(tmp_path / "nope")

    @pytest.mark.parametrize("action", ["stats", "compact"])
    def test_directory_without_marker_is_refused(self, action, tmp_path, capsys):
        # A sweep's output directory is not a cache: its stream must
        # survive a mistaken --cache-dir.
        (tmp_path / "results").mkdir()
        stream = tmp_path / "results" / "run.jsonl"
        stream.write_text(_line("k", _row(1)) + "\n")
        code = main(["sweep-cache", action, "--cache-dir",
                     str(tmp_path / "results")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("sweep-cache: ") and err.count("\n") == 1
        assert "CACHE_META.json" in err
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "run.jsonl"
        ]
        assert stream.read_text() == _line("k", _row(1)) + "\n"

    def test_files_the_cache_never_wrote_are_left_alone(self, tmp_path):
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            writer.put("k", _row(1))
        foreign = {
            name: _line("x", _row(2)) + "\n"
            for name in ("notes.jsonl", "shard-x.jsonl", "compact.jsonl")
        }
        for name, text in foreign.items():
            (tmp_path / "c" / name).write_text(text)
        assert cache_stats(tmp_path / "c")["files"] == 1
        reader = VerdictCache(tmp_path / "c", mode="read")
        assert reader.get("x") is None and reader.get("k") == _row(1)
        summary = compact_cache(tmp_path / "c")
        assert summary["entries"] == 1
        for name, text in foreign.items():
            assert (tmp_path / "c" / name).read_text() == text

    def test_compact_folds_quiescent_shards_bit_identically(self, tmp_path):
        on_two, on_four = _spec(m=2), _spec(m=4)
        with VerdictCache(tmp_path / "c", mode="readwrite") as writer:
            row_two = _evaluate_sweep_item((on_two, 5), writer)
            row_four = _evaluate_sweep_item((on_four, 5), writer)
        shard = sorted((tmp_path / "c").glob("shard-*.jsonl"))[0]
        # Quiescent source: named after a pid that is not alive.
        shard.rename(tmp_path / "c" / f"shard-{DEAD_PID}.jsonl")
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
        directory = tmp_path / "c"
        VerdictCache(directory, mode="readwrite").close()  # the marker
        line = _line("dup", _row(5))
        (directory / "compact-0.jsonl").write_text(line + "\n")
        (directory / f"shard-{DEAD_PID}.jsonl").write_text(
            line + "\n" + line[: 20])
        summary = compact_cache(directory)
        assert summary["entries"] == 1  # duplicates fold to one line
        assert summary["swept"] == 1  # the torn tail never travels
        assert summary["output"] == "compact-1.jsonl"
        assert summary["files_removed"] == 2
        compacted = directory / summary["output"]
        assert compacted.read_text() == line + "\n"

    def test_parent_layout_is_served_and_compacted(self, tmp_path):
        # A directory as the sidecar-index layout left it: a compacted
        # generation and a quiescent shard, each with its ``.idx``.
        spec = _spec()
        directory = tmp_path / "c"
        cold = SweepEngine(cache="readwrite", cache_dir=directory).run(spec)
        shard = sorted(directory.glob("shard-*.jsonl"))[0]
        lines = shard.read_text().splitlines(keepends=True)
        shard.unlink()
        half = len(lines) // 2
        for name, part in (("compact-0", lines[:half]),
                           (f"shard-{DEAD_PID}", lines[half:])):
            (directory / f"{name}.jsonl").write_text("".join(part))
            index, off = [], 0
            for line in part:
                key = json.loads(line)["key"]
                index.append(json.dumps(
                    {"v": 2, "key": key, "off": off, "len": len(line)},
                    separators=(",", ":")) + "\n")
                off += len(line)
            (directory / f"{name}.idx").write_text("".join(index))
        assert cache_stats(directory)["entries"] == spec.total_items
        for step in ("as left", "compacted"):
            stream = tmp_path / f"{step}.jsonl"
            warm = SweepEngine(cache="read", cache_dir=directory).run(
                spec, stream=stream)
            assert _stream_totals(stream) == (spec.total_items, 0), step
            assert _strip(warm) == _strip(cold)
            if step == "as left":
                summary = compact_cache(directory)
                assert summary["files_removed"] == 2
        assert sorted(p.name for p in directory.iterdir()) == [
            "CACHE_META.json", "compact-1.jsonl",
        ]

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
        assert reader.swept == 0

"""Tail-follow stream reading and the cluster-wide live merger.

The live merger consumes shard streams *while their writers are still
appending*.  These tests pin the concurrency semantics that makes that
safe: whole lines only, torn tails deferred (then delivered once the
writer finishes the line), truncation (shard restart) detected, and
:func:`repro.engine.streaming.read_stream` staying correct when invoked
mid-write by an unrelated process (``sweep-status`` on a live run).
"""

import json
import threading
import time

import pytest

from repro.engine import LiveMerger, StreamTail, StreamWriter, read_stream
from repro.engine.checkpoint import FORMAT_VERSION
from repro.exceptions import AnalysisError, ShardError

HEADER = {
    "type": "header",
    "version": FORMAT_VERSION,
    "kind": "sweep",
    "fingerprint": "f" * 64,
    "shard": None,
    "total_items": 8,
    "meta": {},
}


def _item_line(item, rows=None, **extra):
    payload = {
        "type": "item",
        "item": item,
        "rows": rows if rows is not None else [[True]],
        "replayed": False,
    }
    payload.update(extra)
    return json.dumps(payload) + "\n"


def _append(path, text):
    with path.open("a") as handle:
        handle.write(text)
        handle.flush()


class TestStreamTail:
    def test_missing_file_is_no_lines(self, tmp_path):
        tail = StreamTail(tmp_path / "nope.jsonl")
        assert tail.poll() == []

    def test_incremental_growth(self, tmp_path):
        path = tmp_path / "s.jsonl"
        tail = StreamTail(path)
        _append(path, json.dumps(HEADER) + "\n")
        assert [l["type"] for l in tail.poll()] == ["header"]
        assert tail.poll() == []  # nothing new
        _append(path, _item_line(0) + _item_line(2))
        assert [l["type"] for l in tail.poll()] == ["item", "item"]

    def test_torn_tail_then_continued_write(self, tmp_path):
        # The exact hazard the live merger faces: the writer has flushed
        # only the first half of a line.  The tail must neither deliver
        # the fragment nor lose it once the newline lands.
        path = tmp_path / "s.jsonl"
        tail = StreamTail(path)
        whole = _item_line(0, [[True, False]])
        _append(path, json.dumps(HEADER) + "\n" + whole[:10])
        first = tail.poll()
        assert [l["type"] for l in first] == ["header"]
        assert tail.poll() == []  # torn tail stays pending
        _append(path, whole[10:])
        (line,) = tail.poll()
        assert line["type"] == "item"
        assert line["rows"] == [[True, False]]

    def test_truncation_detected_and_reread(self, tmp_path):
        path = tmp_path / "s.jsonl"
        tail = StreamTail(path)
        _append(path, json.dumps(HEADER) + "\n" + _item_line(0))
        assert len(tail.poll()) == 2
        # A retried shard reopens its stream with "w": shorter file.
        path.write_text(json.dumps(HEADER) + "\n")
        lines = tail.poll()
        assert tail.truncations == 1
        assert [l["type"] for l in lines] == ["header"]

    def test_corrupt_complete_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(AnalysisError):
            StreamTail(path).poll()

    def test_unlinked_stream_counts_as_restart(self, tmp_path):
        # The orchestrator unlinks a relaunched shard's stream before
        # the new attempt starts; an external tail (a second
        # sweep-status process, a monitor) must read that as a restart,
        # not silently keep its stale offset.
        path = tmp_path / "s.jsonl"
        tail = StreamTail(path)
        _append(path, json.dumps(HEADER) + "\n" + _item_line(0))
        assert len(tail.poll()) == 2
        path.unlink()
        assert tail.poll() == []
        assert tail.truncations == 1
        _append(path, json.dumps(HEADER) + "\n" + _item_line(1))
        lines = tail.poll()
        assert [l["type"] for l in lines] == ["header", "item"]
        assert lines[1]["item"] == 1

    def test_truncate_and_regrow_past_offset_resets_cleanly(self, tmp_path):
        # Satellite regression: between two polls the stream is
        # truncated AND rewritten to a size at or beyond the consumed
        # offset.  The size check alone cannot see that; the tail must
        # still reset instead of parsing the new file from a stale
        # mid-line offset (folding garbage into the cluster view or
        # raising a bogus corruption error).
        path = tmp_path / "s.jsonl"
        tail = StreamTail(path)
        short = json.dumps(HEADER) + "\n" + _item_line(0)
        _append(path, short)
        assert len(tail.poll()) == 2  # offset now == len(short)
        # Rewrite with *longer* content whose bytes at the old offset
        # are mid-line.
        rewritten = (
            json.dumps(HEADER) + "\n"
            + _item_line(0, [[99, 99, 99]])
            + _item_line(3)
        )
        assert len(rewritten) > len(short)
        path.write_text(rewritten)
        lines = tail.poll()
        assert tail.truncations == 1
        assert [l["type"] for l in lines] == ["header", "item", "item"]
        assert lines[1]["rows"] == [[99, 99, 99]]

    def test_truncate_and_regrow_to_exact_offset_is_restart(self, tmp_path):
        # Satellite regression: the rewrite regrows the file to
        # *exactly* the consumed offset.  ``size == offset`` used to
        # short-circuit as "clean, fully-consumed tail" before the
        # witness-byte comparison ran, so the restart went unreported
        # and the replacement stream's lines were silently swallowed.
        path = tmp_path / "s.jsonl"
        tail = StreamTail(path)
        consumed = json.dumps(HEADER) + "\n" + _item_line(1)
        _append(path, consumed)
        assert len(tail.poll()) == 2
        # Same byte count, different final line (so the witness bytes
        # at the consumed offset differ): another item of equal width.
        rewritten = json.dumps(HEADER) + "\n" + _item_line(5)
        assert len(rewritten) == len(consumed)
        assert rewritten != consumed
        path.write_text(rewritten)
        lines = tail.poll()
        assert tail.truncations == 1
        assert [l["type"] for l in lines] == ["header", "item"]
        assert lines[1]["item"] == 5
        # And a rewrite whose bytes happen to be identical is, by
        # definition, indistinguishable and must NOT count as restart.
        path.write_text(rewritten)
        assert tail.poll() == []
        assert tail.truncations == 1

    def test_concurrently_appending_writer(self, tmp_path):
        """A writer thread appends while the tail polls: every line
        arrives exactly once, whole, in order."""
        path = tmp_path / "s.jsonl"
        total = 40

        def writer():
            with path.open("w") as handle:
                handle.write(json.dumps(HEADER) + "\n")
                handle.flush()
                for index in range(total):
                    handle.write(_item_line(index))
                    handle.flush()
                    time.sleep(0.001)

        thread = threading.Thread(target=writer)
        tail = StreamTail(path)
        seen = []
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while len(seen) < total + 1 and time.monotonic() < deadline:
                seen.extend(tail.poll())
        finally:
            thread.join()
        seen.extend(tail.poll())
        assert [l["type"] for l in seen] == ["header"] + ["item"] * total
        assert [l["item"] for l in seen[1:]] == list(range(total))


class TestReadStreamUnderConcurrentWriter:
    """Satellite: read_stream mid-write must see a valid prefix."""

    def test_read_stream_tolerates_torn_then_continued_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        torn = _item_line(4)
        _append(
            path,
            json.dumps(HEADER) + "\n" + _item_line(0) + torn[: len(torn) // 2],
        )
        dump = read_stream(path)  # a "sweep-status" of a live run
        assert not dump.complete
        assert sorted(dump.records) == [0]
        # The writer finishes the torn line and the run completes.
        _append(
            path,
            torn[len(torn) // 2 :]
            + json.dumps(
                {"type": "summary", "done_items": 6, "elapsed_seconds": 0.5}
            )
            + "\n",
        )
        dump = read_stream(path)
        assert dump.complete
        assert sorted(dump.records) == [0, 4]

    def test_read_stream_while_writer_thread_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        total = 25
        stop = threading.Event()

        def writer():
            with StreamWriter(path) as out:
                out.write_header(
                    kind="sweep", fingerprint="f" * 64, total_items=total, meta={}
                )
                for index in range(total):
                    out.write_item(index, [[True]], elapsed_seconds=0.001)
                    time.sleep(0.001)
                out.write_summary(total, 1.0)
            stop.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            # Hammer read_stream concurrently: every call must parse a
            # valid prefix (monotonically growing, never an error).
            sizes = []
            while not stop.is_set():
                dump = read_stream(path) if path.exists() else None
                if dump is not None:
                    sizes.append(len(dump.records))
                time.sleep(0.002)
        finally:
            thread.join()
        final = read_stream(path)
        assert final.complete
        assert sorted(final.records) == list(range(total))
        assert sizes == sorted(sizes), "observed item counts went backwards"


class TestLiveMerger:
    def _write_shard_stream(self, path, fingerprint, items, summary=False):
        with path.open("w") as handle:
            header = dict(HEADER, fingerprint=fingerprint)
            handle.write(json.dumps(header) + "\n")
            for item in items:
                handle.write(_item_line(item, elapsed_seconds=0.01))
            if summary:
                handle.write(
                    json.dumps(
                        {"type": "summary", "done_items": 0, "elapsed_seconds": 0}
                    )
                    + "\n"
                )

    def test_merges_partial_streams_incrementally(self, tmp_path):
        fp = "a" * 64
        merger = LiveMerger(total_items=8, fingerprint=fp)
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        merger.attach(0, s0)
        merger.attach(1, s1)

        view = merger.poll()
        assert view.done_items == 0 and not view.finished

        self._write_shard_stream(s0, fp, [0, 2])
        view = merger.poll()
        assert view.done_items == 2
        assert view.shards[0].state == "running"
        assert view.shards[1].state == "waiting"

        self._write_shard_stream(s1, fp, [1, 3, 5], summary=True)
        view = merger.poll()
        assert view.done_items == 5
        assert view.shards[1].state == "finished"
        assert view.fraction_done == pytest.approx(5 / 8)
        assert view.timings == ((1, 0.01),) * 5

    def test_shrunk_stream_detected_as_restart(self, tmp_path):
        fp = "a" * 64
        merger = LiveMerger(total_items=8, fingerprint=fp)
        path = tmp_path / "s0.jsonl"
        merger.attach(0, path)
        self._write_shard_stream(path, fp, [0, 1, 2, 3])
        assert merger.poll().done_items == 4
        # Retry truncates and rewrites a strictly shorter file.
        self._write_shard_stream(path, fp, [0, 1])
        view = merger.poll()
        assert view.done_items == 2
        assert view.shards[0].restarts == 1

    def test_regrown_rewrite_detected_as_restart(self, tmp_path):
        # Satellite regression, merger level: a relaunched shard that
        # truncated and already rewrote a *longer* stream between polls
        # must reset that shard's contribution, not fold the new lines
        # on top of the stale ones (double counting) or die parsing
        # from a stale offset.
        fp = "a" * 64
        merger = LiveMerger(total_items=8, fingerprint=fp)
        path = tmp_path / "s0.jsonl"
        merger.attach(0, path)
        self._write_shard_stream(path, fp, [0, 1])
        assert merger.poll().done_items == 2
        self._write_shard_stream(path, fp, [0, 2, 3, 4, 5, 6])
        view = merger.poll()
        assert view.shards[0].restarts == 1
        assert view.done_items == 6
        assert len(view.timings) == 6

    def test_explicit_reset_discards_state(self, tmp_path):
        # The orchestrator's relaunch path: reset() must work even when
        # the rewritten stream is the same length or longer (the
        # size-shrink heuristic cannot see those).
        fp = "a" * 64
        merger = LiveMerger(total_items=8, fingerprint=fp)
        path = tmp_path / "s0.jsonl"
        merger.attach(0, path)
        self._write_shard_stream(path, fp, [0, 1, 2, 3])
        assert merger.poll().done_items == 4
        path.unlink()
        merger.reset(0)
        self._write_shard_stream(path, fp, [0, 1])
        view = merger.poll()
        assert view.done_items == 2
        assert len(view.timings) == 2
        assert view.shards[0].restarts == 1

    def test_foreign_fingerprint_rejected(self, tmp_path):
        merger = LiveMerger(total_items=8, fingerprint="a" * 64)
        path = tmp_path / "s0.jsonl"
        merger.attach(0, path)
        self._write_shard_stream(path, "b" * 64, [])
        with pytest.raises(ShardError):
            merger.poll()

    def test_cache_counters_pool_across_shards(self, tmp_path):
        merger = LiveMerger(total_items=8)
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        merger.attach(0, s0)
        merger.attach(1, s1)
        with s0.open("w") as handle:
            handle.write(json.dumps(HEADER) + "\n")
            handle.write(_item_line(
                0, cache={"hits": 1, "misses": 1, "swept": 2, "stale": 0}
            ))
        with s1.open("w") as handle:
            handle.write(json.dumps(HEADER) + "\n")
            # Old streams without the health keys still fold cleanly.
            handle.write(_item_line(2, cache={"hits": 0, "misses": 2}))
            handle.write(_item_line(
                4, cache={"hits": 1, "misses": 0, "swept": 1, "stale": 3}
            ))
        view = merger.poll()
        assert (view.cache_hits, view.cache_misses) == (2, 3)
        assert (view.cache_swept, view.cache_stale) == (3, 3)
        assert view.shard(0).cache_swept == 2
        assert view.shard(1).cache_stale == 3
        # A retry discards the shard's folded telemetry with the rest.
        merger.reset(0)
        view = merger.view()
        assert (view.cache_swept, view.cache_stale) == (1, 3)

    def test_item_lines_count_as_progress(self, tmp_path):
        # Every kind streams one line per item, timed or replayed.
        merger = LiveMerger(total_items=4)
        path = tmp_path / "s0.jsonl"
        merger.attach(0, path)
        with path.open("w") as handle:
            handle.write(json.dumps(dict(HEADER, kind="splitsweep")) + "\n")
            handle.write(json.dumps({"type": "item", "item": 0, "rows": []}) + "\n")
            handle.write(json.dumps({"type": "item", "item": 2, "rows": []}) + "\n")
        view = merger.poll()
        assert view.done_items == 2
        assert view.timings == ()

"""Reading a JSONL stream while its writer is still appending.

A stream is flushed one whole line per completed item, so a reader
that opens it mid-run — ``tail -f``, a dashboard, a test polling a
background sweep — must parse a valid prefix: torn tails deferred,
never an empty or headerless file, and item counts that only grow.
"""

import json
import threading
import time

from repro.engine import StreamWriter, read_stream
from repro.engine.checkpoint import FORMAT_VERSION

HEADER = {
    "type": "header",
    "version": FORMAT_VERSION,
    "kind": "sweep",
    "fingerprint": "f" * 64,
    "shard": None,
    "total_items": 8,
    "meta": {},
}


def _item_line(item):
    payload = {"type": "item", "item": item, "rows": [[True]], "replayed": False}
    return json.dumps(payload) + "\n"


def _append(path, text):
    with path.open("a") as handle:
        handle.write(text)
        handle.flush()


class TestReadStreamUnderConcurrentWriter:
    """read_stream mid-write must see a valid prefix."""

    def test_read_stream_tolerates_torn_then_continued_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        torn = _item_line(4)
        _append(
            path,
            json.dumps(HEADER) + "\n" + _item_line(0) + torn[: len(torn) // 2],
        )
        dump = read_stream(path)  # a reader of a live run
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

    def test_stream_holds_its_header_once_the_writer_exists(self, tmp_path):
        # A reader racing a just-started run must see a valid empty
        # prefix, never an empty or headerless file.
        path = tmp_path / "s.jsonl"
        path.write_text("stale bytes of an earlier attempt\n")
        with StreamWriter(
            path, kind="sweep", fingerprint="f" * 64, total_items=3, meta={},
        ):
            dump = read_stream(path)
            assert dump.header["fingerprint"] == "f" * 64
            assert dump.records == {} and not dump.complete
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]

    def test_read_stream_while_writer_thread_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        total = 25

        def writer():
            with StreamWriter(
                path, kind="sweep", fingerprint="f" * 64, total_items=total,
                meta={},
            ) as out:
                for index in range(total):
                    out.write_item(index, [[True]], elapsed_seconds=0.001)
                    time.sleep(0.001)
                out.write_summary(total, 1.0)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            # Hammer read_stream concurrently: every call must parse a
            # valid prefix (monotonically growing, never an error).
            sizes = []
            while thread.is_alive():
                dump = read_stream(path) if path.exists() else None
                if dump is not None:
                    sizes.append(len(dump.records))
                time.sleep(0.002)
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        final = read_stream(path)
        assert final.complete
        assert sorted(final.records) == list(range(total))
        assert sizes == sorted(sizes), "observed item counts went backwards"

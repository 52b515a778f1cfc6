"""Streaming sweep results: append-as-you-go JSONL record files.

Checkpoints snapshot a sweep every few seconds; a *stream* is finer and
cheaper to consume incrementally: one JSON object per line, flushed the
moment each work item completes, so a dashboard, a tail -f, or a
downstream job can watch a long sweep converge instead of waiting for
the final table.  The line schema:

* ``{"type": "header", "version": ..., "kind": ..., "fingerprint": ...,
  "shard": {...} | null, "total_items": ..., "meta": {...}}`` — first
  line, identifies the sweep (same kind/fingerprint/meta as shard
  artifacts);
* ``{"type": "item", "item": ..., "rows": [...], "replayed": bool,
  "elapsed_seconds": float?, "cache": {...}?}`` — one completed work
  item: its per-item record (the same ``item``/``rows`` pair
  checkpoints and shard artifacts carry).  ``replayed`` marks records
  restored from a checkpoint rather than computed by this run;
  ``elapsed_seconds`` is the item's wall-time in its worker (the
  observed per-item cost ``sweep-status`` reports); ``cache`` carries
  the item's verdict-cache ``{"hits", "misses", "swept", "stale"}``
  deltas when a cache is enabled — both absent on replayed lines;
* ``{"type": "summary", "done_items": ..., "elapsed_seconds": ...}`` —
  final line of a run that finished.

A stream path never exists without its header line: the writer
publishes the header atomically and appends from there.  A stream
interrupted mid-run is still a valid prefix: every line is
self-contained and the writer flushes per line.  Streams are an
*observation* channel — resuming uses checkpoints, merging uses shard
artifacts — but :func:`read_stream` rebuilds every item's rows for
offline inspection, and the conformance suite asserts a stream's
records reduce to exactly the sweep's final result.

:class:`StreamTail` reads the same files *while they grow*: it keeps a
byte offset, returns only newly-completed lines on each poll, leaves a
torn tail (a line the writer has not finished flushing) buffered until
the newline lands, and detects a restart (a relaunched shard replaces
its stream) so a consumer can reset that shard's view.
The cluster-wide live merger (:mod:`repro.engine.livemerge`) is built
on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType

from repro.exceptions import AnalysisError
from repro.engine.checkpoint import (
    FORMAT_VERSION,
    Records,
    record_json,
    write_text_atomic,
)


class StreamWriter:
    """Write one run's JSONL stream, flushing every line.

    Building the writer publishes the stream with its header line
    already in it: the header goes to a pid-unique tmp that is renamed
    over ``path``, and the file is then opened for append.  So a reader
    never finds the path empty or headerless.  Any earlier file at the
    path is replaced (a resumed run replays checkpoint-restored items
    into the new stream first, so a stream file is always
    self-contained).  Use as a context manager.
    """

    def __init__(
        self,
        path: str | Path,
        kind: str,
        fingerprint: str,
        total_items: int,
        meta: dict,
        shard: dict | None = None,
    ) -> None:
        self.path = Path(path)
        header = {
            "type": "header",
            "version": FORMAT_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "shard": shard,
            "total_items": total_items,
            "meta": meta,
        }
        write_text_atomic(self.path, json.dumps(header) + "\n")
        self._handle = self.path.open("a")

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def _emit(self, payload: dict) -> None:
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()

    def write_item(
        self,
        item: int,
        rows: list,
        replayed: bool = False,
        elapsed_seconds: float | None = None,
        cache: dict[str, int] | None = None,
    ) -> None:
        payload = {"type": "item", **record_json(item, rows)}
        payload["replayed"] = replayed
        if elapsed_seconds is not None:
            payload["elapsed_seconds"] = elapsed_seconds
        if cache is not None:
            payload["cache"] = dict(cache)
        self._emit(payload)

    def write_summary(self, done_items: int, elapsed_seconds: float) -> None:
        self._emit(
            {
                "type": "summary",
                "done_items": done_items,
                "elapsed_seconds": elapsed_seconds,
            }
        )


@dataclass(slots=True)
class StreamDump:
    """A fully-parsed stream file."""

    header: dict
    #: Item index -> rows, over every item line (JSON rows, undecoded).
    records: Records = field(default_factory=dict)
    summary: dict | None = None

    @property
    def complete(self) -> bool:
        """True when the run wrote its final summary line."""
        return self.summary is not None


def iter_stream(path: str | Path):
    """Yield each stream line as a dict, tolerating a truncated tail.

    A final partial line (the writer was killed mid-write) is ignored;
    any earlier malformed line raises, since the writer flushes whole
    lines only.
    """
    path = Path(path)
    with path.open() as handle:
        for line in handle:
            if not line.endswith("\n"):
                break  # torn final line from a killed writer
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AnalysisError(
                    f"stream {path} has a corrupt line ({exc})"
                ) from exc
            if not isinstance(payload, dict) or "type" not in payload:
                raise AnalysisError(f"stream {path} has a malformed line")
            yield payload


class StreamTail:
    """Incrementally follow a JSONL stream that another process is writing.

    Each :meth:`poll` returns the stream lines completed since the last
    poll (possibly none).  Three concurrent-writer hazards are handled:

    * **growth** — only bytes past the last consumed offset are read;
    * **torn tail** — a trailing fragment without a newline (the writer
      is mid-flush, or the OS exposed a partial write) is left pending;
      the offset does not advance past it, so the completed line is
      returned whole by a later poll;
    * **truncation** — the file shrinking below the consumed offset, or
      disappearing outright (the orchestrator unlinks a relaunched
      shard's stream before its new attempt starts), means the stream
      was restarted: the tail resets to offset 0 and sets
      :attr:`truncations` so the consumer can discard that shard's
      accumulated state;
    * **rewrite race** — a stream truncated *and* already rewritten by
      the time of the poll can have regrown to or past the consumed
      offset, so the size check alone would resume reading mid-line (or
      at a coincidental line boundary) in the new file's byte space.
      Every poll therefore re-reads the bytes where the last consumed
      line used to end and compares them to what was consumed; a
      mismatch means the file under the tail is a different stream, and
      the tail resets exactly like a detected truncation instead of
      folding stale tail bytes into the consumer's view.

    A missing file that was never read from is simply "no lines yet" —
    the orchestrator attaches tails before its shards have started
    writing.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._offset = 0
        #: Bytes of the last consumed line (newline included), i.e. the
        #: content of ``offset - len .. offset`` — re-checked on every
        #: poll to detect a truncate-and-rewrite under the tail.
        self._last_line = b""
        #: Times the stream restarted (file shrank, vanished, or was
        #: rewritten under the tail).
        self.truncations = 0

    def _restart(self) -> None:
        self._offset = 0
        self._last_line = b""
        self.truncations += 1

    def poll(self) -> list[dict]:
        """Parse and return the newly-completed lines (maybe empty).

        Raises
        ------
        AnalysisError
            On a *completed* line that is not a JSON object with a
            ``type`` — the writer only flushes whole lines, so that is
            corruption, not concurrency.
        """
        if not self.path.exists():
            if self._offset > 0:
                # A stream we were mid-way through is gone: a relaunch
                # unlinked it.  Surface the restart now so the consumer
                # resets before the new attempt's lines arrive.
                self._restart()
            return []
        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self._offset:
            self._restart()
        elif size == self._offset and self._offset > 0 and self._last_line:
            # Equal size is not proof of "no new data": a truncate-and-
            # rewrite can regrow the file to *exactly* the consumed
            # offset, which the size checks alone would report as a
            # clean, fully-consumed tail.  Run the witness comparison
            # here too; a mismatch is a restart whose content must be
            # re-read from byte 0 below.
            with self.path.open("rb") as handle:
                handle.seek(self._offset - len(self._last_line))
                witness = handle.read(len(self._last_line))
            if witness != self._last_line:
                self._restart()
        if size == self._offset:
            return []
        with self.path.open("rb") as handle:
            if self._offset > 0 and self._last_line:
                # The offset is only meaningful while the file still
                # holds the bytes we consumed up to it; a
                # truncate-and-rewrite that regrew the file to or past
                # the offset between polls would otherwise be read from
                # an arbitrary position in the *new* content.  The last
                # consumed line is the cheap witness: re-read its byte
                # range and compare.
                handle.seek(self._offset - len(self._last_line))
                witness = handle.read(len(self._last_line))
                if witness != self._last_line:
                    self._restart()
            handle.seek(self._offset)
            data = handle.read(size - self._offset)
        lines: list[dict] = []
        consumed = 0
        last_line = self._last_line
        for raw in data.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break  # torn tail: wait for the writer to finish it
            consumed += len(raw)
            last_line = raw
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise AnalysisError(
                    f"stream {self.path} has a corrupt line ({exc})"
                ) from exc
            if not isinstance(payload, dict) or "type" not in payload:
                raise AnalysisError(
                    f"stream {self.path} has a malformed line"
                )
            lines.append(payload)
        self._offset += consumed
        self._last_line = last_line
        return lines


def read_stream(path: str | Path) -> StreamDump:
    """Parse a whole stream file into a :class:`StreamDump`.

    Raises
    ------
    AnalysisError
        When the file is missing, empty, does not start with a header,
        or carries an unexpected format version.
    """
    path = Path(path)
    if not path.exists():
        raise AnalysisError(f"stream {path} does not exist")
    dump: StreamDump | None = None
    for payload in iter_stream(path):
        if dump is None:
            if payload["type"] != "header":
                raise AnalysisError(
                    f"stream {path} does not start with a header line"
                )
            if payload.get("version") != FORMAT_VERSION:
                raise AnalysisError(
                    f"stream {path} has format version "
                    f"{payload.get('version')!r}, expected {FORMAT_VERSION}"
                )
            dump = StreamDump(header=payload)
        elif payload["type"] == "item":
            try:
                dump.records[int(payload["item"])] = list(payload["rows"])
            except (KeyError, TypeError, ValueError) as exc:
                raise AnalysisError(
                    f"stream {path} has a malformed item line ({exc!r})"
                ) from exc
        elif payload["type"] == "summary":
            dump.summary = payload
    if dump is None:
        raise AnalysisError(f"stream {path} is empty")
    return dump

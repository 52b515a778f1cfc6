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
  ``elapsed_seconds`` is the item's wall-time in its worker;
  ``cache`` carries the item's verdict-cache ``{"hits", "misses",
  "swept"}`` deltas when a cache is enabled — both absent on replayed
  lines;
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
    self-contained).  A path that cannot be written raises
    :class:`~repro.exceptions.AnalysisError` naming it.  Use as a
    context manager.
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

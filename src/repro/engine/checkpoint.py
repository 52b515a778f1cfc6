"""Resumable-sweep checkpoints: periodic JSON snapshots of per-item rows.

A checkpoint records every completed work item's *rows* — the item's
evaluation result as a list of JSON-primitive rows, e.g. one boolean
per analysis method for a Figure-2 item, one row per NPR threshold for
a split-sweep item — plus the fingerprint of the sweep that produced
them.  Because every work item is evaluated independently of every
other, any subset of the remaining items resumes correctly: the
chunking of a resumed run need not match the interrupted one.

Corrupt, truncated or version-skewed files raise
:class:`~repro.exceptions.CheckpointError` (never a bare ``KeyError`` or
``json.JSONDecodeError``); writes are atomic (unique tmp file + rename)
so an interrupt mid-save can never destroy the previous snapshot.

The per-item record (:func:`record_json` / :func:`parse_records`,
``{"item": i, "rows": [...]}``) is the engine's one record: shard
artifacts (:mod:`repro.engine.shard`) and JSONL stream lines
(:mod:`repro.engine.streaming`) carry it too.  Bump
:data:`FORMAT_VERSION` when it changes.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import AnalysisError, CheckpointError

#: Bump when the on-disk schema changes; older files are rejected.
#: Version 2: per-item row records replace version 1's per-chunk
#: schedulable counts.
FORMAT_VERSION = 2

#: Completed work items: item index -> that item's rows.
Records = dict[int, list]


def record_json(item: int, rows: Sequence) -> dict:
    """The JSON form of one item's record (checkpoints, shards, streams)."""
    return {"item": item, "rows": [list(row) for row in rows]}


def records_json(records: Mapping[int, Sequence]) -> list[dict]:
    """Every record in item order, in :func:`record_json` form."""
    return [record_json(item, records[item]) for item in sorted(records)]


def parse_records(
    entries: Iterable[dict],
    row_codec: Callable[[Sequence], tuple] | None,
    error: type[AnalysisError],
    where: str,
) -> Records:
    """Parse :func:`record_json` entries, decoding rows with ``row_codec``.

    ``row_codec`` is the kind's row decoder (``None`` keeps the JSON
    rows as they are).  A malformed entry, a row the codec rejects or
    an item recorded twice raises ``error`` naming ``where``.
    """
    records: Records = {}
    for entry in entries:
        try:
            item = int(entry["item"])
            rows = entry["rows"]
            if not isinstance(rows, list):
                raise TypeError("rows must be a list")
            if row_codec is not None:
                rows = [row_codec(row) for row in rows]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # ``error`` is the caller's typed AnalysisError subclass.
            # repro-lint: disable=ERR001
            raise error(
                f"{where} has a malformed record ({exc!r}); it is corrupt"
            ) from exc
        if item in records:
            # repro-lint: disable=ERR001
            raise error(f"{where} records item {item} twice; it is corrupt")
        records[item] = rows
    return records


@dataclass(slots=True)
class SweepCheckpoint:
    """Everything needed to resume an interrupted sweep."""

    fingerprint: str
    records: Records = field(default_factory=dict)

    def covered_items(self) -> set[int]:
        """All work-item indexes already accounted for."""
        return set(self.records)


def load_checkpoint(
    path: str | Path,
    row_codec: Callable[[Sequence], tuple] | None = None,
) -> SweepCheckpoint | None:
    """Read a checkpoint; ``None`` when the file does not exist.

    ``row_codec`` decodes every record's rows (the sweep kind's
    registered codec); ``None`` keeps the JSON rows.

    Raises
    ------
    CheckpointError
        On truncated or unreadable JSON, a missing field, a malformed
        record or an unknown format version — delete the file (or
        point the sweep at a fresh path) to start over.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"checkpoint {path} is not a JSON object; delete it to restart"
            )
        if payload.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has format version "
                f"{payload.get('version')!r}, expected {FORMAT_VERSION}; "
                "delete it to restart"
            )
        return SweepCheckpoint(
            fingerprint=str(payload["fingerprint"]),
            records=parse_records(
                payload["records"], row_codec, CheckpointError,
                f"checkpoint {path}",
            ),
        )
    except AnalysisError:
        raise
    except (
        OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
        AttributeError,
    ) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable ({exc}); delete it to restart"
        ) from exc


def write_json_atomic(
    path: str | Path,
    payload: dict,
    error: type[AnalysisError] = AnalysisError,
) -> None:
    """Serialise ``payload`` to ``path`` atomically (:func:`write_text_atomic`)."""
    write_text_atomic(path, json.dumps(payload), error)


def write_text_atomic(
    path: str | Path,
    text: str,
    error: type[AnalysisError] = AnalysisError,
) -> None:
    """Write ``text`` to ``path`` via a unique tmp file + rename.

    The tmp name embeds the pid so concurrent writers (e.g. two shard
    runs told to checkpoint next to each other) never clobber each
    other's half-written file; ``os.replace`` makes the final publish
    atomic on POSIX and Windows alike.  A path that cannot be written
    (its parent is a file, it names a directory, no permission) raises
    ``error``, the caller's typed error, naming the path.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        # ``error`` is the caller's typed AnalysisError subclass.
        # repro-lint: disable=ERR001
        raise error(f"cannot write {path}: {exc}") from exc


def clean_stale_tmps(target: str | Path) -> list[Path]:
    """Remove orphaned atomic-write temp files, returning what was removed.

    :func:`write_text_atomic` unlinks its pid-unique ``*.tmp`` in a
    ``finally``, but a SIGKILL (or power loss) between ``write_text``
    and ``os.replace`` orphans it; resumed runs would otherwise let
    them accumulate in the output directory forever.

    ``target`` is the atomic-write target whose temps
    (``<name>.<pid>.tmp`` siblings) are cleaned.  Only call for targets
    no live process is writing: a concurrent writer's in-flight temp
    would be yanked from under its rename.
    """
    target = Path(target)
    removed: list[Path] = []
    # Sorted so the sweep (and its returned list) is independent of
    # filesystem directory order — resume behaviour must not vary by
    # host (repro-lint DET001).
    for tmp in sorted(target.parent.glob(f"{target.name}.*.tmp")):
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - racing unlink is fine
            continue
        removed.append(tmp)
    return removed


def save_checkpoint(path: str | Path, checkpoint: SweepCheckpoint) -> None:
    """Atomically write ``checkpoint`` as JSON (records in item order)."""
    write_json_atomic(path, {
        "version": FORMAT_VERSION,
        "fingerprint": checkpoint.fingerprint,
        "records": records_json(checkpoint.records),
    }, CheckpointError)

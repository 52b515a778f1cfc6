"""Durable result store: an append-only sqlite database of merged runs.

Every sweep in the stack ends, today, as loose CSV/JSONL artifacts
under ad-hoc paths.  This module gives merged results a durable home:
an sqlite database (default ``results/store.db``) that every completed
merge can *publish* into, turning the paper's acceptance-ratio figures
into addressable, versioned row sets that can be queried and diffed
across runs instead of re-derived from files.

Design contract
---------------

* **Append-only.**  The public API only ever inserts; there is no
  update or delete path.  Corrections happen by publishing a new run —
  the old rows stay addressable, and the validation layer
  (:mod:`repro.engine.validation`) surfaces the disagreement as drift.
* **Canonical rows.**  Shard artifacts are canonicalised before
  storage so that *how* a run was executed leaves no trace in what is
  stored: every kind stores its per-item records, one JSON payload per
  ``(item, seq)`` — the item's ``seq``-th row, decoded through the
  kind's registered row codec (a grid sweep's one row per item is its
  per-method verdict tuple).  Records are keyed by item, never by
  which shard or chunk produced them, so an inline run and a 16-shard
  run of the same workload publish byte-identical row sets.
* **Idempotent publication.**  A run is keyed by ``(fingerprint,
  content_hash)`` — the workload identity plus a SHA-256 over the
  canonical rows.  Re-publishing the same merge inserts zero rows and
  records a deduplicated publication (provenance is still appended:
  *that* a publication happened is part of the history).
* **Typed errors.**  Raw :mod:`sqlite3` exceptions never escape; every
  failure surfaces as :class:`~repro.exceptions.StoreError` (under
  ``AnalysisError``, like every other persistence error in the stack).
* **Versioned schema.**  The database carries :data:`STORE_VERSION` in
  its ``store_meta`` table; opening a store written by a different
  schema version fails loudly instead of misreading it.

Round-trip guarantee: :meth:`ResultStore.export_csv` of a published
run is bit-identical to the legacy CSV writer's output for the same
merge — floats survive JSON round-trips exactly, and the export path
rebuilds the kind's result through the same registered reduction the
engine itself uses.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sqlite3
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.engine.checkpoint import FORMAT_VERSION
from repro.engine.shard import ShardArtifact, ShardSpec, combine_shards
from repro.exceptions import StoreError

__all__ = [
    "STORE_VERSION",
    "DEFAULT_STORE_DIR",
    "STORE_FILENAME",
    "RunRecord",
    "PublicationRecord",
    "PublicationReport",
    "ResultStore",
    "store_path",
    "open_store",
    "publish_artifacts",
    "canonicalize_artifacts",
]

#: Schema version of the store database.  Bump on breaking changes to
#: the table layout or the canonical row encoding; additive columns
#: don't bump (mirrors FORMAT_VERSION / JOBSPEC_VERSION discipline).
#: Version 2: grid sweeps store per-item verdict rows instead of
#: version 1's per-point counts.
STORE_VERSION = 2

#: Default directory holding the store database.
DEFAULT_STORE_DIR = "results"

#: Database filename inside the store directory.
STORE_FILENAME = "store.db"

#: sqlite busy timeout — concurrent publishers serialise on the write
#: lock instead of failing immediately.
_CONNECT_TIMEOUT_SECONDS = 30.0


def store_path(store_dir: str | Path | None = None) -> Path:
    """The database path for ``store_dir`` (default ``results/store.db``)."""
    base = Path(store_dir) if store_dir is not None else Path(DEFAULT_STORE_DIR)
    return base / STORE_FILENAME


def open_store(store_dir: str | Path | None = None) -> ResultStore:
    """Open (creating if needed) the store under ``store_dir``."""
    return ResultStore(store_path(store_dir))


# ----------------------------------------------------------------------
# Records returned by the query API.


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One published run: a canonical row set plus its identity."""

    run_id: int
    kind: str
    fingerprint: str
    content_hash: str
    total_items: int
    expected_rows: int
    meta: dict
    job: dict | None
    engine: dict
    elapsed_seconds: float


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """Provenance: one publication event against the store."""

    publication_id: int
    run_id: int
    fingerprint: str
    content_hash: str
    source: str
    rows_added: int
    deduplicated: bool
    created_at: str


@dataclass(frozen=True, slots=True)
class PublicationReport:
    """What one :meth:`ResultStore.publish` call did."""

    path: Path
    run_id: int
    kind: str
    fingerprint: str
    row_count: int
    rows_added: int
    deduplicated: bool


# ----------------------------------------------------------------------
# Canonicalisation: shard artifacts -> the stored row set.


@dataclass(frozen=True, slots=True)
class _CanonicalRun:
    kind: str
    fingerprint: str
    total_items: int
    meta: dict
    rows: tuple[tuple[int, int, str], ...]
    elapsed_seconds: float
    content_hash: str


def _payload(obj) -> str:
    """Canonical JSON encoding of one row payload."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def canonicalize_artifacts(
    artifacts: Sequence[ShardArtifact | str | Path],
) -> _CanonicalRun:
    """Reduce a *complete* shard set to its canonical stored form.

    Validates the set (one sweep, full coverage, disjoint items) and
    produces the execution-independent row encoding described in the
    module docstring.  Raises :class:`StoreError` on partial coverage
    or artifacts the registry cannot decode — only whole runs publish.
    """
    try:
        run = combine_shards(artifacts)
    except StoreError:
        raise
    except Exception as exc:
        raise StoreError(f"cannot publish artifact set: {exc}") from exc

    meta = json.loads(json.dumps(run.meta))
    rows = [
        (item, seq, _payload(list(row)))
        for item in sorted(run.records)
        for seq, row in enumerate(run.records[item])
    ]
    digest = hashlib.sha256(
        json.dumps(
            {
                "kind": run.kind,
                "fingerprint": run.fingerprint,
                "total_items": run.total_items,
                "meta": meta,
                "rows": [[item, seq, payload] for item, seq, payload in rows],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    ).hexdigest()
    return _CanonicalRun(
        kind=run.kind,
        fingerprint=run.fingerprint,
        total_items=run.total_items,
        meta=meta,
        rows=tuple(rows),
        elapsed_seconds=run.elapsed_seconds,
        content_hash=digest,
    )


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _engine_json() -> str:
    return json.dumps(
        {
            "store_version": STORE_VERSION,
            "format_version": FORMAT_VERSION,
            "python": platform.python_version(),
        },
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# The store itself.

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS store_meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS runs (
        id INTEGER PRIMARY KEY,
        kind TEXT NOT NULL,
        fingerprint TEXT NOT NULL,
        content_hash TEXT NOT NULL,
        total_items INTEGER NOT NULL,
        expected_rows INTEGER NOT NULL,
        meta_json TEXT NOT NULL,
        job_json TEXT,
        engine_json TEXT NOT NULL,
        elapsed_seconds REAL NOT NULL,
        UNIQUE (fingerprint, content_hash)
    )""",
    """CREATE TABLE IF NOT EXISTS rows (
        run_id INTEGER NOT NULL REFERENCES runs(id),
        item INTEGER NOT NULL,
        seq INTEGER NOT NULL,
        payload TEXT NOT NULL,
        PRIMARY KEY (run_id, item, seq)
    )""",
    """CREATE TABLE IF NOT EXISTS publications (
        id INTEGER PRIMARY KEY,
        run_id INTEGER NOT NULL REFERENCES runs(id),
        fingerprint TEXT NOT NULL,
        content_hash TEXT NOT NULL,
        source TEXT NOT NULL,
        rows_added INTEGER NOT NULL,
        deduplicated INTEGER NOT NULL,
        created_at TEXT NOT NULL
    )""",
)


class ResultStore:
    """Handle on one store database; use as a context manager.

    All methods translate :mod:`sqlite3` failures into
    :class:`StoreError`; a handle whose database is corrupt or written
    by a different :data:`STORE_VERSION` fails at construction.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._con = sqlite3.connect(
                self.path, timeout=_CONNECT_TIMEOUT_SECONDS
            )
        except (OSError, sqlite3.Error) as exc:
            raise StoreError(
                f"cannot open result store {self.path} ({exc})"
            ) from exc
        try:
            self._init_schema()
        except sqlite3.Error as exc:
            self._con.close()
            raise StoreError(
                f"result store {self.path} is unusable ({exc})"
            ) from exc
        except StoreError:
            self._con.close()
            raise

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._con.close()

    def __enter__(self) -> ResultStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- schema --------------------------------------------------------

    def _init_schema(self) -> None:
        self._con.execute("PRAGMA foreign_keys = ON")
        self._con.execute("BEGIN IMMEDIATE")
        try:
            for statement in _SCHEMA:
                self._con.execute(statement)
            row = self._con.execute(
                "SELECT value FROM store_meta WHERE key = 'store_version'"
            ).fetchone()
            if row is None:
                self._con.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("store_version", str(STORE_VERSION)),
                )
            elif row[0] != str(STORE_VERSION):
                raise StoreError(
                    f"result store {self.path} has store version "
                    f"{row[0]!r}, expected {STORE_VERSION}; refusing to "
                    "read a different schema"
                )
            self._con.execute("COMMIT")
        except BaseException:
            self._rollback()
            raise

    def _rollback(self) -> None:
        try:
            self._con.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    # -- publishing ----------------------------------------------------

    def publish(
        self,
        artifacts: Sequence[ShardArtifact | str | Path],
        *,
        job: object | None = None,
        source: str = "api",
    ) -> PublicationReport:
        """Publish a complete shard set as one run (idempotently).

        ``job`` may be a :class:`~repro.engine.jobspec.JobSpec`, an
        already-serialised job dict, or ``None``; it is stored verbatim
        as provenance.  Returns what happened — on a re-publication of
        an already-stored run, ``rows_added`` is 0 and ``deduplicated``
        is true, and only a provenance record is appended.
        """
        run = canonicalize_artifacts(artifacts)
        job_json = _job_to_json(job)
        try:
            self._con.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot lock result store {self.path} ({exc})"
            ) from exc
        try:
            existing = self._con.execute(
                "SELECT id FROM runs WHERE fingerprint = ? "
                "AND content_hash = ?",
                (run.fingerprint, run.content_hash),
            ).fetchone()
            if existing is not None:
                run_id, rows_added, deduplicated = int(existing[0]), 0, True
            else:
                cursor = self._con.execute(
                    "INSERT INTO runs (kind, fingerprint, content_hash, "
                    "total_items, expected_rows, meta_json, job_json, "
                    "engine_json, elapsed_seconds) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run.kind,
                        run.fingerprint,
                        run.content_hash,
                        run.total_items,
                        len(run.rows),
                        json.dumps(run.meta, sort_keys=True),
                        job_json,
                        _engine_json(),
                        run.elapsed_seconds,
                    ),
                )
                run_id = int(cursor.lastrowid)
                self._con.executemany(
                    "INSERT INTO rows (run_id, item, seq, payload) "
                    "VALUES (?, ?, ?, ?)",
                    [
                        (run_id, item, seq, payload)
                        for item, seq, payload in run.rows
                    ],
                )
                rows_added, deduplicated = len(run.rows), False
            self._con.execute(
                "INSERT INTO publications (run_id, fingerprint, "
                "content_hash, source, rows_added, deduplicated, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    run.fingerprint,
                    run.content_hash,
                    source,
                    rows_added,
                    1 if deduplicated else 0,
                    _utc_now(),
                ),
            )
            self._con.execute("COMMIT")
        except sqlite3.Error as exc:
            self._rollback()
            raise StoreError(
                f"publishing into {self.path} failed ({exc})"
            ) from exc
        except BaseException:
            self._rollback()
            raise
        return PublicationReport(
            path=self.path,
            run_id=run_id,
            kind=run.kind,
            fingerprint=run.fingerprint,
            row_count=len(run.rows),
            rows_added=rows_added,
            deduplicated=deduplicated,
        )

    # -- queries -------------------------------------------------------

    def runs(
        self,
        *,
        fingerprint: str | None = None,
        kind: str | None = None,
    ) -> tuple[RunRecord, ...]:
        """Published runs, oldest first, optionally filtered."""
        query = (
            "SELECT id, kind, fingerprint, content_hash, total_items, "
            "expected_rows, meta_json, job_json, engine_json, "
            "elapsed_seconds FROM runs"
        )
        clauses, params = [], []
        if fingerprint is not None:
            clauses.append("fingerprint = ?")
            params.append(fingerprint)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        return tuple(
            _run_record(row) for row in self._select(query, params)
        )

    def run(self, run_id: int) -> RunRecord:
        """The run with ``run_id``; :class:`StoreError` if absent."""
        rows = self._select(
            "SELECT id, kind, fingerprint, content_hash, total_items, "
            "expected_rows, meta_json, job_json, engine_json, "
            "elapsed_seconds FROM runs WHERE id = ?",
            (run_id,),
        )
        if not rows:
            raise StoreError(f"no run {run_id} in {self.path}")
        return _run_record(rows[0])

    def rows(self, run_id: int) -> list[tuple[int, int, object]]:
        """Canonical ``(item, seq, payload)`` rows of one run, in order."""
        out = []
        for item, seq, payload in self._select(
            "SELECT item, seq, payload FROM rows WHERE run_id = ? "
            "ORDER BY item, seq",
            (run_id,),
        ):
            try:
                decoded = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise StoreError(
                    f"run {run_id} row ({item}, {seq}) in {self.path} "
                    f"does not decode ({exc})"
                ) from exc
            out.append((int(item), int(seq), decoded))
        return out

    def row_count(self, run_id: int) -> int:
        """Stored row count of one run (cheap; no decode)."""
        rows = self._select(
            "SELECT COUNT(*) FROM rows WHERE run_id = ?", (run_id,)
        )
        return int(rows[0][0])

    def publications(
        self, *, run_id: int | None = None
    ) -> tuple[PublicationRecord, ...]:
        """Provenance records, oldest first, optionally per run."""
        query = (
            "SELECT id, run_id, fingerprint, content_hash, source, "
            "rows_added, deduplicated, created_at FROM publications"
        )
        params: tuple = ()
        if run_id is not None:
            query += " WHERE run_id = ?"
            params = (run_id,)
        query += " ORDER BY id"
        return tuple(
            PublicationRecord(
                publication_id=int(row[0]),
                run_id=int(row[1]),
                fingerprint=str(row[2]),
                content_hash=str(row[3]),
                source=str(row[4]),
                rows_added=int(row[5]),
                deduplicated=bool(row[6]),
                created_at=str(row[7]),
            )
            for row in self._select(query, params)
        )

    def _select(self, query: str, params: Sequence = ()) -> list:
        try:
            return self._con.execute(query, tuple(params)).fetchall()
        except sqlite3.Error as exc:
            raise StoreError(
                f"query against {self.path} failed ({exc})"
            ) from exc

    # -- export --------------------------------------------------------

    def result(self, run_id: int):
        """Rebuild the run's merged result object (kind-dispatched)."""
        from repro.engine.registry import spec_for_artifact

        record = self.run(run_id)
        rows = self.rows(run_id)
        if len(rows) != record.expected_rows:
            raise StoreError(
                f"run {run_id} in {self.path} is incomplete: "
                f"{len(rows)} rows stored, {record.expected_rows} "
                "expected; refusing to export"
            )
        spec = spec_for_artifact(record.kind)
        by_item: dict[int, list] = {}
        try:
            for item, _seq, payload in rows:
                by_item.setdefault(item, []).append(spec.row_codec(payload))
            return spec.reduce(ShardArtifact(
                kind=record.kind,
                fingerprint=record.fingerprint,
                shard=ShardSpec(0, 1),
                total_items=record.total_items,
                meta=dict(record.meta),
                records=by_item,
                elapsed_seconds=record.elapsed_seconds,
            ))
        except StoreError:
            raise
        except Exception as exc:
            raise StoreError(
                f"run {run_id} in {self.path} does not rebuild under "
                f"its kind's reduction ({exc})"
            ) from exc

    def export_csv(self, run_id: int, path: str | Path) -> Path:
        """Write one run as CSV — bit-identical to the legacy writer."""
        from repro.engine.registry import spec_for_artifact

        record = self.run(run_id)
        result = self.result(run_id)
        return spec_for_artifact(record.kind).write_csv(result, path)


# ----------------------------------------------------------------------
# Decoding (store rows -> query records).


def _run_record(row: Sequence) -> RunRecord:
    try:
        meta = json.loads(row[6])
        job = json.loads(row[7]) if row[7] is not None else None
        engine = json.loads(row[8])
    except json.JSONDecodeError as exc:
        raise StoreError(
            f"run {row[0]} metadata does not decode ({exc})"
        ) from exc
    return RunRecord(
        run_id=int(row[0]),
        kind=str(row[1]),
        fingerprint=str(row[2]),
        content_hash=str(row[3]),
        total_items=int(row[4]),
        expected_rows=int(row[5]),
        meta=meta,
        job=job,
        engine=engine,
        elapsed_seconds=float(row[9]),
    )


def _job_to_json(job: object | None) -> str | None:
    if job is None:
        return None
    if hasattr(job, "to_json_dict"):
        payload = job.to_json_dict()
    elif isinstance(job, Mapping):
        payload = dict(job)
    else:
        raise StoreError(
            f"job provenance must be a JobSpec or a mapping, "
            f"got {type(job).__name__}"
        )
    return json.dumps(payload, sort_keys=True)


def publish_artifacts(
    store_dir: str | Path | None,
    artifacts: Sequence[ShardArtifact | str | Path],
    *,
    job: object | None = None,
    source: str = "cli",
) -> PublicationReport:
    """Open the store under ``store_dir``, publish, close.

    The one-shot publication path shared by ``Session`` and the
    ``sweep-db publish`` CLI.
    """
    with open_store(store_dir) as store:
        return store.publish(artifacts, job=job, source=source)

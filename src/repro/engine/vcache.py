"""Persistent verdict cache of the grid sweeps' items, keyed on coordinates.

A utilisation-grid item (figure2, group2) draws its task-set from its
own ``default_rng(seed, spawn_key=(point, index))`` stream
(:mod:`repro.rng`), so its verdicts are fixed by its *generation
coordinates*: the profile, the seed, the
point index and its utilisation, the task-set index, ``m``, the
methods and the LP-ILP solvers.  :func:`coordinate_key` hashes exactly those
plus a code salt (:func:`code_salt`), and an entry stores the item's
row — one boolean per method, the record checkpoints, streams and
shard artifacts already carry.  A warm replay therefore neither generates
nor analyses a task-set.

The salt is a SHA-256 over the source bytes of every module an item's
verdict depends on (:data:`SALTED_SOURCES`), the RNG port included, so
an edit to the generator, the draws or the analysis can never replay a
stale verdict and no constant needs a hand bump.  It is computed once per
process.

Layout: a cache directory (default ``results/cache/``) holding

* ``CACHE_META.json`` — marker (written atomically via tmp +
  ``os.replace``) recording the cache format and version; the
  ``sweep-cache`` actions refuse a directory without it;
* ``shard-<pid>.jsonl`` — per-process append-only write shards.  Every
  entry is one complete JSON line ``{"version", "key", "row"}``,
  written with a single buffered write and flushed immediately, so an
  entry becomes visible atomically at line granularity the moment it is
  durable;
* ``compact-<n>.jsonl`` — consolidated shards written by
  :func:`compact_cache`.

The cache reads, folds and removes only files with those two names;
anything else in the directory is never touched.  A handle reads every
cache file once, in sorted name order, on its first lookup or insert,
and serves from memory after that: an entry is about 110 bytes, so the
paper's whole evaluation loads in tens of milliseconds.  A later line
for a key wins.  A torn final line (a writer killed mid-append) and any
corrupt or version-skewed entry are *swept* — skipped, counted, and the
item recomputed — never silently trusted.  No cross-process locking is
needed.

Fork safety: write shards are keyed by pid and lazily reopened after
a fork, so any number of worker processes (shard subprocesses and the
process-pool workers they fork) can append concurrently; each sees its
own writes immediately via the in-memory store and everyone else's
when a new handle reads the shards.

Lifecycle: :func:`cache_stats` and :func:`compact_cache` (the
``sweep-cache`` CLI).  Compaction folds every committed entry into one
consolidated shard (dropping swept ones, version-1 entries included)
and only ever deletes a source file whose owning pid is no longer alive
*and* whose size did not change since it was read, so it is safe to run
concurrently with active readwrite sweeps: live writers keep their
shards (their entries are copied; the duplicates are identical entries
deduplicated by key), and the torn-tail guards above cover everything
else.  The cache is disposable — a missing entry is only a recompute —
so space is reclaimed by deleting the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

from repro.exceptions import CacheError
from repro.engine.checkpoint import write_json_atomic

#: Version of the cache entry schema; part of every key.  Version 2:
#: coordinate keys and row entries replace version 1's content-hash
#: keys and serialised analyses.
CACHE_VERSION = 2

#: Cache modes accepted by the execution policy and the CLI.
CACHE_MODES = ("off", "read", "readwrite")

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = "results/cache"

_META_NAME = "CACHE_META.json"

#: The names of the files a cache writes: per-pid append shards and
#: compaction generations.
_CACHE_FILE = re.compile(r"(shard|compact)-([0-9]+)\.jsonl")

#: The sources a grid item's verdict depends on, relative to the
#: package root: generation, the task model, the analyses and their
#: solvers, the RNG and the sweep module that seeds it per item.
SALTED_SOURCES = (
    "generator", "model", "graph", "core", "combinatorics", "ilp",
    "rng.py", "engine/sweep.py",
)

#: This process's code salt (see :func:`code_salt`), once computed.
_SALT: str | None = None


def code_salt() -> str:
    """SHA-256 over the :data:`SALTED_SOURCES` bytes.

    Computed once per process (about 2 ms) and kept for the process's
    lifetime.
    """
    global _SALT
    if _SALT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for name in SALTED_SOURCES:
            path = root / name
            for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
                digest.update(f"\0{source.relative_to(root).as_posix()}\0".encode())
                digest.update(source.read_bytes())
        _SALT = digest.hexdigest()
    return _SALT


def coordinate_key(*coordinates: object) -> str:
    """Cache key of one grid item: SHA-256 over its coordinates.

    ``coordinates`` are plain values whose ``repr`` is stable (see
    :meth:`~repro.engine.sweep.SweepSpec.item_key`); the key also
    covers :data:`CACHE_VERSION` and :func:`code_salt`.
    """
    text = repr((f"repro.vcache/v{CACHE_VERSION}", code_salt(), *coordinates))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_entry(line: str) -> tuple[str, tuple[bool, ...]]:
    """One JSONL line → ``(key, row)``; :class:`CacheError` if bad."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CacheError(f"corrupt cache line: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheError(f"cache line is not an object: {type(payload).__name__}")
    if payload.get("version") != CACHE_VERSION:
        raise CacheError(
            f"cache entry version {payload.get('version')!r} != {CACHE_VERSION}"
        )
    key = payload.get("key")
    if not isinstance(key, str) or not key:
        raise CacheError("cache entry has no key")
    row = payload.get("row")
    if (
        not isinstance(row, list) or not row
        or not all(isinstance(value, bool) for value in row)
    ):
        raise CacheError("cache entry has no row of booleans")
    return key, tuple(row)


def _entry_line(key: str, row: tuple[bool, ...]) -> bytes:
    """An entry as the one complete JSONL line a cache file holds."""
    return (
        json.dumps(
            {"version": CACHE_VERSION, "key": key, "row": list(row)},
            separators=(",", ":"),
        )
        + "\n"
    ).encode("utf-8")


def _file_number(path: Path, kind: str) -> int | None:
    """``n`` of a cache file named ``<kind>-<n>.jsonl``, else ``None``."""
    match = _CACHE_FILE.fullmatch(path.name)
    return int(match[2]) if match and match[1] == kind else None


def _cache_files(directory: Path) -> list[Path]:
    """The cache files in ``directory``, sorted by name; none if it is missing."""
    return [
        path for path in sorted(directory.glob("*.jsonl"))
        if _CACHE_FILE.fullmatch(path.name)
    ]


def _read_cache(
    directory: Path,
) -> tuple[dict[str, tuple[bool, ...]], int, list[tuple[Path, int]]]:
    """Read every cache file of ``directory`` once.

    Returns ``(rows, swept, read)``: the row of every intact entry by
    key (a later line for a key wins), the number of swept lines, and
    each file read with its size.
    """
    rows: dict[str, tuple[bool, ...]] = {}
    swept = 0
    read: list[tuple[Path, int]] = []
    for path in _cache_files(directory):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        read.append((path, len(data)))
        for line in data.decode("utf-8", errors="replace").split("\n"):
            if not line.strip():
                continue
            try:
                key, row = _parse_entry(line)
            except CacheError:
                swept += 1
            else:
                rows[key] = row
    return rows, swept, read


class VerdictCache:
    """A handle on the on-disk verdict cache.

    Parameters
    ----------
    directory:
        The cache directory; created (with parents) for ``readwrite``.
    mode:
        ``"read"`` (lookups only) or ``"readwrite"`` (lookups + inserts).
        ``"off"`` is rejected — callers represent *off* as no cache at
        all (``None``).

    Attributes
    ----------
    hits / misses:
        Lookup counters since this handle was opened.
    swept:
        Corrupt, truncated or version-skewed lines skipped while reading
        the cache files (each item is recomputed on demand, never
        served).  Counted by the first lookup or insert, which reads
        them.
    """

    #: Entries that failed to parse after being read: always 0, because
    #: every entry is parsed as the cache files are read.  Kept for
    #: ``perfbench``, whose traced runs report it.
    stale = 0

    def __init__(self, directory: str | os.PathLike, mode: str) -> None:
        if mode not in CACHE_MODES or mode == "off":
            raise CacheError(
                f"invalid cache mode {mode!r}; expected 'read' or 'readwrite'"
            )
        self.directory = Path(directory)
        self.mode = mode
        self.hits = 0
        self.misses = 0
        self.swept = 0
        #: Every entry on disk plus this handle's inserts; read from
        #: disk on first use.
        self._store: dict[str, tuple[bool, ...]] | None = None
        self._handle = None
        self._writer_pid: int | None = None
        if mode == "readwrite":
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CacheError(
                    f"cannot create cache directory {self.directory}: {exc}"
                ) from exc
            meta = self.directory / _META_NAME
            marker = {"format": "repro.vcache/sharded-jsonl", "cache_version": CACHE_VERSION}
            try:
                current = json.loads(meta.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                current = None
            if current != marker:  # absent, or left by an older version
                write_json_atomic(meta, marker, CacheError)
        elif self.directory.exists() and not self.directory.is_dir():
            raise CacheError(f"cache path {self.directory} is not a directory")

    def _entries(self) -> dict[str, tuple[bool, ...]]:
        """The in-memory entry map; the first call reads the cache files.

        Reading on first use rather than at construction puts the
        swept-line count into the first item's stream-line deltas.
        """
        if self._store is None:
            self._store, self.swept, _ = _read_cache(self.directory)
        return self._store

    def get(self, key: str) -> tuple[bool, ...] | None:
        """Look an item's row up; counts a hit or a miss."""
        row = self._entries().get(key)
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def put(self, key: str, row: tuple[bool, ...]) -> None:
        """Insert an item's row (no-op in ``read`` mode).

        The entry is appended to this process's shard as one complete
        line and flushed; the in-memory store sees it immediately.
        """
        if self.mode != "readwrite":
            return
        entries = self._entries()
        if key in entries:
            return
        entries[key] = row
        pid = os.getpid()
        if self._handle is None or self._writer_pid != pid:
            self._open_writer(pid)
        self._handle.write(_entry_line(key, row))
        self._handle.flush()

    def _open_writer(self, pid: int) -> None:
        """(Re)open the pid-keyed shard for appending.

        Called on the first write and after a fork, so concurrent
        processes never share a file.  A previous incarnation of this
        pid may have died mid-write and left a torn final line; it is
        terminated with a newline so appended entries stay parseable
        (the fragment is swept on read).
        """
        self.close()
        path = self.directory / f"shard-{pid}.jsonl"
        try:
            # Appending (every write goes to the end) and readable, for
            # the torn-tail check.
            self._handle = path.open("a+b")
        except OSError as exc:
            raise CacheError(f"cannot open cache shard for writing: {exc}") from exc
        try:
            if self._handle.seek(0, os.SEEK_END) > 0:
                self._handle.seek(-1, os.SEEK_END)
                if self._handle.read(1) != b"\n":
                    self._handle.write(b"\n")
                    self._handle.flush()
        except OSError:  # pragma: no cover - best effort
            pass
        self._writer_pid = pid

    def close(self) -> None:
        """Close the write shard (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._handle = None
        self._writer_pid = None

    def stats(self) -> dict[str, int]:
        """Telemetry snapshot: ``{"hits": ..., "misses": ...}``."""
        return {"hits": self.hits, "misses": self.misses}

    def __enter__(self) -> "VerdictCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VerdictCache({str(self.directory)!r}, mode={self.mode!r}, "
            f"hits={self.hits}, misses={self.misses}, swept={self.swept})"
        )


# ----------------------------------------------------------------------
# lifecycle: stats / compaction (sweep-cache CLI)
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` currently names a live process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign uid, still alive
        return True
    except OSError:  # pragma: no cover - conservative default
        return True
    return True


def _live_writer(path: Path) -> bool:
    """Whether ``path`` is the shard of a live process."""
    pid = _file_number(path, "shard")
    return pid is not None and _pid_alive(pid)


def _require_cache_dir(directory: str | os.PathLike) -> Path:
    """``directory`` as a path, if it holds a cache; :class:`CacheError` if not."""
    path = Path(directory)
    if not path.is_dir():
        raise CacheError(f"cache directory {path} does not exist")
    if not (path / _META_NAME).is_file():
        raise CacheError(
            f"{path} is not a verdict-cache directory (no {_META_NAME})"
        )
    return path


def cache_stats(directory: str | os.PathLike) -> dict:
    """Summarise a cache directory: files, entries, bytes, swept lines.

    ``swept`` counts the torn, corrupt or version-skewed lines read.
    """
    path = _require_cache_dir(directory)
    rows, swept, read = _read_cache(path)
    return {
        "directory": str(path),
        "files": len(read),
        "live_writers": sum(_live_writer(shard) for shard, _ in read),
        "entries": len(rows),
        "data_bytes": sum(size for _, size in read),
        "swept": swept,
    }


def compact_cache(directory: str | os.PathLike) -> dict:
    """Fold every committed entry into one consolidated shard.

    Reads every cache file (sweeping torn/corrupt lines), writes the
    deduplicated entries to a new ``compact-<n>.jsonl``
    (complete-then-rename, so readers only ever see a finished file),
    then deletes each source file that is provably quiescent: its
    owning pid (if a ``shard-<pid>``) is not alive *and* its size did
    not change since it was read.  Live writers keep their shards —
    their entries were copied, and the remaining duplicates are
    identical entries deduplicated by key on read — so compaction is
    safe concurrent with active readwrite sweeps: no committed entry is
    lost and no torn line is ever written.  Swept lines, version-1
    entries included, are dropped.
    """
    path = _require_cache_dir(directory)
    rows, swept, read = _read_cache(path)
    generation = 1 + max(
        (n for shard, _ in read if (n := _file_number(shard, "compact")) is not None),
        default=-1,
    )
    output = path / f"compact-{generation}.jsonl"
    tmp = output.with_name(output.name + ".tmp")
    with tmp.open("wb") as handle:
        for key, row in rows.items():
            handle.write(_entry_line(key, row))
    os.replace(tmp, output)

    removed = 0
    kept = 0
    for shard, size_at_read in read:
        if _live_writer(shard):
            kept += 1  # an active writer may append at any moment
            continue
        try:
            if shard.stat().st_size != size_at_read:
                kept += 1  # grew since the read: entries we did not copy
                continue
            shard.unlink()
        except OSError:
            kept += 1
            continue
        # An older version kept a sidecar index beside each shard.
        shard.with_suffix(".idx").unlink(missing_ok=True)
        removed += 1
    return {
        "directory": str(path),
        "output": output.name,
        "entries": len(rows),
        "swept": swept,
        "files_removed": removed,
        "files_kept": kept,
        "bytes_before": sum(size for _, size in read),
        "bytes_after": sum(shard.stat().st_size for shard in _cache_files(path)),
    }

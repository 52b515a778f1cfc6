"""Persistent verdict cache of the grid sweeps' items, keyed on coordinates.

A utilisation-grid item (figure2, group2) draws its task-set from its
own ``default_rng(seed, spawn_key=(point, index))`` stream
(:mod:`repro.rng`), so its verdicts are fixed by its *generation
coordinates*: the profile, the seed, the
point index and its utilisation, the task-set index, ``m``, the
methods and the LP-ILP solvers.  :func:`coordinate_key` hashes exactly those
plus a code salt (:func:`code_salt`), and an entry stores the item's
row — one boolean per method, the record checkpoints, streams and the
result store already carry.  A warm replay therefore neither generates
nor analyses a task-set.

The salt is a SHA-256 over the source bytes of every module an item's
verdict depends on (:data:`SALTED_SOURCES`), the RNG port included, so
an edit to the generator, the draws or the analysis can never replay a
stale verdict and no constant needs a hand bump.  It is computed once per
process; the worker daemon computes it before it forks, so a forked
worker keys with the code it runs.

Layout: a cache directory (default ``results/cache/``) holding

* ``CACHE_META.json`` — informational marker (written atomically via
  tmp + ``os.replace``) recording the cache format and version;
* ``shard-<pid>.jsonl`` — per-process append-only write shards.  Every
  entry is one complete JSON line ``{"version", "key", "row"}``,
  written with a single buffered write and flushed immediately, so an
  entry becomes visible atomically at line granularity the moment it is
  durable;
* ``shard-<pid>.idx`` — the shard's sidecar index: one JSON line
  ``{"v", "key", "off", "len"}`` per entry, appended *after* the entry
  itself.  Opening a cache reads only the index files and the
  un-indexed byte tails of their shards; rows are fetched lazily, one
  ``seek`` + ``read`` per first lookup of a key;
* ``compact-<n>.jsonl`` (+ ``.idx``) — consolidated shards written by
  :func:`compact_cache`.

Readers merge all ``*.jsonl`` shards with no cross-process locking.  A
shard without a current index (a version-1 cache, or a foreign writer)
and any bytes past a shard's indexed extent are scanned line by line; a
torn final line (a writer killed mid-append) and any corrupt or
version-skewed entry are *swept* — skipped, counted, and the item
recomputed — never silently trusted.  An index whose extent exceeds its
shard (the shard was truncated underneath it) is distrusted wholesale
and the shard is scanned instead.  An indexed entry that no longer
parses at fetch time is counted *stale* and treated as a miss.

Daemon safety: write shards are keyed by pid and lazily reopened after
a fork, so any number of worker processes (including daemon-spawned
ones) can append concurrently; each sees its own writes immediately via
the in-memory store and everyone else's on the next cache open.

Lifecycle: :func:`cache_stats`, :func:`compact_cache` and
:func:`gc_cache` (the ``sweep-cache`` CLI) bound a long-lived cache
directory's size and file count.  Compaction folds every committed
entry into one consolidated shard (dropping swept ones, version-1
entries included) and only ever deletes a source file whose owning pid
is no longer alive *and* whose size did not change since it was
scanned, so it is safe to run concurrently with active readwrite
sweeps: live writers keep their shards (their entries are copied; the
duplicates are identical entries deduplicated by key), and the
torn-tail guards above cover everything else.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

from repro.exceptions import CacheError
from repro.engine.checkpoint import write_json_atomic

#: Version of the cache entry schema; part of every key.  Version 2:
#: coordinate keys and row entries replace version 1's content-hash
#: keys and serialised analyses.
CACHE_VERSION = 2

#: Version of the sidecar index line schema.  Version 2 indexes
#: version-2 entries only, so a version-1 shard is scanned and swept.
INDEX_VERSION = 2

#: Cache modes accepted by the execution policy and the CLI.
CACHE_MODES = ("off", "read", "readwrite")

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = "results/cache"

_META_NAME = "CACHE_META.json"

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

    Computed once per process (about 2 ms) and kept: the worker daemon
    calls this before it forks, so a forked worker keys with the code
    it runs even if the files change under the daemon.
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


def _index_path(shard: Path) -> Path:
    """The sidecar index of a data shard (``shard-1.jsonl`` → ``shard-1.idx``)."""
    return shard.with_suffix(".idx")


def _data_shards(directory: Path) -> list[Path]:
    """Every data shard of a cache directory, in deterministic order."""
    return sorted(directory.glob("*.jsonl"))


def _read_index(idx_path: Path) -> list[tuple[str, int, int]]:
    """Parse a sidecar index into ``(key, off, len)`` records.

    Malformed lines (a torn tail from a killed writer) are skipped;
    every intact line is kept, so a torn line in the middle costs at
    most the entries whose index lines were lost — their bytes are
    still covered by the shard's tail scan or a later compaction, and
    a missed entry is only ever a recompute, never corruption.
    """
    records: list[tuple[str, int, int]] = []
    try:
        text = idx_path.read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(payload, dict) or payload.get("v") != INDEX_VERSION:
            continue
        key = payload.get("key")
        off = payload.get("off")
        length = payload.get("len")
        if (
            isinstance(key, str) and key
            and isinstance(off, int) and off >= 0
            and isinstance(length, int) and length > 0
        ):
            records.append((key, off, length))
    return records


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
        Corrupt, truncated or version-skewed entries skipped while
        scanning shards (each one is recomputed on demand, never used).
    stale:
        Indexed entries that failed to parse when fetched (the shard
        changed under the index); each is a recorded miss.
    """

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
        self.stale = 0
        #: Rows held in memory: this handle's inserts plus entries
        #: already fetched (or scanned) from disk.
        self._store: dict[str, tuple[bool, ...]] = {}
        #: key → ``(shard path, offset, length)`` of not-yet-fetched
        #: on-disk entries, built lazily from the sidecar indexes.
        self._locations: dict[str, tuple[Path, int, int]] = {}
        self._indexed = False
        self._handle = None
        self._idx_handle = None
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
                write_json_atomic(meta, marker)
        elif self.directory.exists() and not self.directory.is_dir():
            raise CacheError(f"cache path {self.directory} is not a directory")

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _ensure_index(self) -> None:
        """Build the lazy key → location map (index files + shard tails).

        Reads only sidecar indexes and the un-indexed tail bytes of
        each shard — open cost is proportional to the index, not to
        the cached entries.  Shards without a current index (version-1
        caches, foreign writers) are scanned in full.
        """
        if self._indexed:
            return
        if self.directory.is_dir():
            for shard in _data_shards(self.directory):
                self._index_shard(shard)
        self._indexed = True

    def _index_shard(self, shard: Path) -> None:
        try:
            size = shard.stat().st_size
        except OSError:
            return
        records = _read_index(_index_path(shard))
        extent = 0
        trusted = True
        for _, off, length in records:
            if off + length > size:
                # The shard was truncated under its index (a killed
                # writer, an external rewrite): no location derived
                # from this index can be trusted.  Fall back to a full
                # scan of what the shard actually holds.
                trusted = False
                break
            extent = max(extent, off + length)
        if not trusted:
            records = []
            extent = 0
        for key, off, length in records:
            self._locations[key] = (shard, off, length)
        if extent < size:
            self._scan_tail(shard, extent, size)

    def _scan_tail(self, shard: Path, start: int, size: int) -> None:
        """Parse shard bytes ``start .. size`` that no index line covers.

        Entries whose index line was lost (a writer killed between the
        entry flush and the index flush) and whole unindexed shards
        land here.  Parsed rows are kept — the parse is already paid.
        """
        try:
            with shard.open("rb") as handle:
                handle.seek(start)
                data = handle.read(size - start)
        except OSError:
            return
        offset = start
        for raw in data.splitlines(keepends=True):
            line = raw.decode("utf-8", errors="replace").strip()
            advance = len(raw)
            if line:
                try:
                    key, row = _parse_entry(line)
                except CacheError:
                    self.swept += 1
                else:
                    self._store[key] = row
                    self._locations[key] = (shard, offset, advance)
            offset += advance

    def get(self, key: str) -> tuple[bool, ...] | None:
        """Look an item's row up; counts a hit or a miss."""
        row = self._store.get(key)
        if row is None:
            self._ensure_index()
            row = self._store.get(key)
        if row is None:
            location = self._locations.get(key)
            if location is not None:
                row = self._fetch(key, location)
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return row

    def _fetch(
        self, key: str, location: tuple[Path, int, int]
    ) -> tuple[bool, ...] | None:
        """Read and decode one indexed entry; stale entries miss."""
        shard, off, length = location
        line: str | None = None
        try:
            with shard.open("rb") as handle:
                handle.seek(off)
                raw = handle.read(length)
            line = raw.decode("utf-8").strip()
        except (OSError, UnicodeDecodeError):
            line = None
        row: tuple[bool, ...] | None = None
        if line:
            try:
                parsed_key, row = _parse_entry(line)
                if parsed_key != key:
                    raise CacheError("index key does not match its entry")
            except CacheError:
                row = None
        if row is None:
            # The shard changed under the index (compaction removed it,
            # or a writer truncated it): drop the location so the miss
            # is recorded once and the item recomputed.
            self.stale += 1
            del self._locations[key]
            return None
        self._store[key] = row
        return row

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: str, row: tuple[bool, ...]) -> None:
        """Insert an item's row (no-op in ``read`` mode).

        The entry is appended to this process's shard as one complete
        line and flushed, then its location is appended to the shard's
        sidecar index; the in-memory store sees it immediately.
        """
        if self.mode != "readwrite":
            return
        self._ensure_index()
        if key in self._store or key in self._locations:
            return
        self._store[key] = row
        data = (
            json.dumps(
                {"version": CACHE_VERSION, "key": key, "row": list(row)},
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        pid = os.getpid()
        if self._handle is None or self._writer_pid != pid:
            self._open_writer(pid)
        self._handle.seek(0, os.SEEK_END)
        off = self._handle.tell()
        self._handle.write(data)
        self._handle.flush()
        index_line = (
            json.dumps(
                {"v": INDEX_VERSION, "key": key, "off": off, "len": len(data)},
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        self._idx_handle.write(index_line)
        self._idx_handle.flush()

    def _open_writer(self, pid: int) -> None:
        """(Re)open the pid-keyed shard + index for appending.

        Called on the first write and after a fork, so concurrent
        processes never share a file.  A previous incarnation of this
        pid may have died mid-write and left a torn final line in the
        shard or its index; each is terminated with a newline so
        appended entries stay parseable (the fragment is swept on
        read, a fragment-merged index line is skipped).
        """
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - best effort
                pass
        if self._idx_handle is not None:
            try:
                self._idx_handle.close()
            except OSError:  # pragma: no cover - best effort
                pass
        path = self.directory / f"shard-{pid}.jsonl"
        try:
            self._handle = path.open("ab")
            self._idx_handle = _index_path(path).open("ab")
        except OSError as exc:
            raise CacheError(f"cannot open cache shard for writing: {exc}") from exc
        for handle in (self._handle, self._idx_handle):
            try:
                handle.seek(0, os.SEEK_END)
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                        handle.flush()
            except OSError:  # pragma: no cover - best effort
                pass
        self._writer_pid = pid

    def close(self) -> None:
        """Close the write shard and its index (idempotent)."""
        for attr in ("_handle", "_idx_handle"):
            handle = getattr(self, attr)
            if handle is not None:
                try:
                    handle.close()
                except OSError:  # pragma: no cover - best effort
                    pass
                setattr(self, attr, None)
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
            f"hits={self.hits}, misses={self.misses}, swept={self.swept}, "
            f"stale={self.stale})"
        )


# ----------------------------------------------------------------------
# lifecycle: stats / compaction / garbage collection (sweep-cache CLI)
# ----------------------------------------------------------------------
def _shard_pid(shard: Path) -> int | None:
    """The owning pid of a ``shard-<pid>.jsonl`` file, if so named."""
    stem = shard.stem
    if stem.startswith("shard-"):
        suffix = stem[len("shard-"):]
        if suffix.isdigit():
            return int(suffix)
    return None


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


def _require_cache_dir(directory: str | os.PathLike) -> Path:
    path = Path(directory)
    if not path.is_dir():
        raise CacheError(f"cache directory {path} does not exist")
    return path


def cache_stats(directory: str | os.PathLike) -> dict:
    """Summarise a cache directory without decoding any indexed entry.

    Returns file/entry/byte counts plus the swept-line count observed
    while indexing (torn tails, corrupt or version-skewed entries).
    """
    path = _require_cache_dir(directory)
    probe = VerdictCache(path, mode="read")
    probe._ensure_index()
    shards = _data_shards(path)
    data_bytes = 0
    index_bytes = 0
    live_writers = 0
    for shard in shards:
        try:
            data_bytes += shard.stat().st_size
        except OSError:
            continue
        idx = _index_path(shard)
        if idx.exists():
            try:
                index_bytes += idx.stat().st_size
            except OSError:
                pass
        pid = _shard_pid(shard)
        if pid is not None and _pid_alive(pid):
            live_writers += 1
    entries = set(probe._locations) | set(probe._store)
    return {
        "directory": str(path),
        "files": len(shards),
        "live_writers": live_writers,
        "entries": len(entries),
        "data_bytes": data_bytes,
        "index_bytes": index_bytes,
        "swept": probe.swept,
    }


def compact_cache(directory: str | os.PathLike) -> dict:
    """Fold every committed entry into one consolidated shard.

    Scans all data shards (sweeping torn/corrupt lines), writes the
    deduplicated entries to a new ``compact-<n>.jsonl`` with a full
    sidecar index (complete-then-rename, so readers only ever see a
    finished file), then deletes each source shard that is provably
    quiescent: its owning pid (if pid-named) is not alive *and* its
    size did not change since it was scanned.  Live writers keep their
    shards — their entries were copied, and the remaining duplicates
    are identical entries deduplicated by key on read — so compaction
    is safe concurrent with active readwrite sweeps: no committed
    entry is lost and no torn line is ever written.  Swept lines,
    version-1 entries included, are dropped.
    """
    path = _require_cache_dir(directory)
    entries: dict[str, str] = {}
    swept = 0
    scanned: list[tuple[Path, int]] = []
    bytes_before = 0
    for shard in _data_shards(path):
        try:
            text = shard.read_text(encoding="utf-8")
            size = shard.stat().st_size
        except OSError:
            continue
        scanned.append((shard, size))
        bytes_before += size
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                key, _ = _parse_entry(line)
            except CacheError:
                swept += 1
                continue
            # Keep the raw line: entry bytes travel verbatim into the
            # compacted shard.
            entries[key] = line

    generation = 0
    for shard, _ in scanned:
        stem = shard.stem
        if stem.startswith("compact-") and stem[len("compact-"):].isdigit():
            generation = max(generation, int(stem[len("compact-"):]) + 1)
    output = path / f"compact-{generation}.jsonl"
    tmp = output.with_name(output.name + ".tmp")
    idx_tmp = _index_path(output).with_name(_index_path(output).name + ".tmp")
    offset = 0
    with tmp.open("wb") as data_handle, idx_tmp.open("wb") as idx_handle:
        for key, line in entries.items():
            data = (line + "\n").encode("utf-8")
            data_handle.write(data)
            idx_handle.write(
                (
                    json.dumps(
                        {"v": INDEX_VERSION, "key": key, "off": offset, "len": len(data)},
                        separators=(",", ":"),
                    )
                    + "\n"
                ).encode("utf-8")
            )
            offset += len(data)
    # Data first, then index: a crash in between leaves a compacted
    # shard without an index, which readers simply scan in full.
    os.replace(tmp, output)
    os.replace(idx_tmp, _index_path(output))

    removed = 0
    kept = 0
    for shard, size_at_scan in scanned:
        pid = _shard_pid(shard)
        if pid is not None and _pid_alive(pid):
            kept += 1  # an active writer may append at any moment
            continue
        try:
            if shard.stat().st_size != size_at_scan:
                kept += 1  # grew since the scan: entries we did not copy
                continue
            shard.unlink()
        except OSError:
            kept += 1
            continue
        idx = _index_path(shard)
        try:
            idx.unlink()
        except OSError:
            pass
        removed += 1
    bytes_after = sum(
        shard.stat().st_size for shard in _data_shards(path) if shard.exists()
    )
    return {
        "directory": str(path),
        "output": output.name,
        "entries": len(entries),
        "swept": swept,
        "files_removed": removed,
        "files_kept": kept,
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
    }


def gc_cache(
    directory: str | os.PathLike,
    max_bytes: int | None = None,
    max_age_days: float | None = None,
) -> dict:
    """Delete quiescent shard files by age and/or total-size budget.

    File-granular (whole shards, never individual entries): first every
    quiescent shard older than ``max_age_days`` goes, then — if the
    directory still exceeds ``max_bytes`` — the oldest quiescent shards
    go until it fits.  Shards of live pids are never touched.  A
    negative or non-finite budget is a :class:`CacheError`, raised
    before any file is touched.
    """
    path = _require_cache_dir(directory)
    if max_bytes is None and max_age_days is None:
        raise CacheError("gc needs --max-bytes and/or --max-age-days")
    for flag, budget in (("--max-bytes", max_bytes), ("--max-age-days", max_age_days)):
        if budget is not None and not (math.isfinite(budget) and budget >= 0):
            raise CacheError(f"gc {flag} must be a finite number >= 0, got {budget!r}")
    # Telemetry-exempt wall-clock (repro-lint DET004): GC compares shard
    # file mtimes against "now" to pick collection victims.  The value
    # influences only *which files get deleted* — a missing entry is
    # only ever a recompute, so collecting any subset never changes a
    # verdict, and `now` is never written into fingerprints, artifacts
    # or RNG seeds.  mtime-vs-wall-clock is also the only correct age
    # source here: time.monotonic() doesn't survive the process
    # boundary between the writer that stamped the file and this GC.
    now = time.time()  # repro-lint: disable=DET004
    shards: list[tuple[float, Path, int]] = []
    total = 0
    for shard in _data_shards(path):
        try:
            stat = shard.stat()
        except OSError:
            continue
        total += stat.st_size
        pid = _shard_pid(shard)
        if pid is not None and _pid_alive(pid):
            continue  # never collect a live writer's shard
        shards.append((stat.st_mtime, shard, stat.st_size))
    shards.sort()

    removed = 0
    bytes_removed = 0

    def unlink(shard: Path, size: int) -> None:
        nonlocal removed, bytes_removed, total
        try:
            shard.unlink()
        except OSError:
            return
        try:
            _index_path(shard).unlink()
        except OSError:
            pass
        removed += 1
        bytes_removed += size
        total -= size

    remaining: list[tuple[float, Path, int]] = []
    if max_age_days is not None:
        cutoff = now - max_age_days * 86400.0
        for mtime, shard, size in shards:
            if mtime < cutoff:
                unlink(shard, size)
            else:
                remaining.append((mtime, shard, size))
    else:
        remaining = shards
    if max_bytes is not None:
        for _, shard, size in remaining:
            if total <= max_bytes:
                break
            unlink(shard, size)
    return {
        "directory": str(path),
        "files_removed": removed,
        "bytes_removed": bytes_removed,
        "bytes_after": total,
        "files_after": len(_data_shards(path)),
    }

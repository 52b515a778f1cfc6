"""Sharded sweep execution: partition, per-shard artifacts, combine.

A :class:`ShardSpec` splits a sweep's work-item space ``0 .. total - 1``
into ``count`` disjoint, covering strided slices: shard ``i`` owns every
item with ``item % count == i``.  The partition depends only on the item
index, never on chunking or executors, so any chunk size, any executor
and any shard count evaluate exactly the same per-item work — a sweep
run as N independent invocations (CI matrix jobs, a cluster, overnight
batches) merges bit-identically to the single-process run.  Striding
(rather than contiguous blocks) spreads every utilisation point across
all shards, so the expensive high-utilisation points are load-balanced
instead of landing on the last shard.

Each shard invocation writes a versioned JSON *shard artifact*: the
sweep's kind tag and fingerprint, the shard coordinates, the metadata
the kind's reduction needs, and one per-item record
(``{"item": i, "rows": [...]}``, :mod:`repro.engine.checkpoint`) for
every item the shard evaluated.  Every kind writes the same container;
only the rows differ, and the kind's registered row codec decodes them
on load.  :func:`combine_shards` validates a set of artifacts — same
kind, fingerprint, format version and shard count, no duplicate items,
no gaps — and unions their records into one whole-sweep artifact,
which the kind's reduction
(:func:`~repro.engine.registry.merge_artifacts`) turns into exactly the
result a single-process serial run produces (wall-clock aside).

:func:`validate_shard_set` checks coverage item by item, not shard by
shard: it accepts any number of artifacts per shard index as long as
their item sets are pairwise disjoint and the union over all artifacts
covers the item space exactly.  So the *sub-shard* artifacts that
orchestration directories of earlier versions hold (several artifacts
with one shard's coordinates, each covering part of its slice) still
merge — bit-identically, because records are keyed by item index,
never by which invocation produced them.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ShardError
from repro.engine.checkpoint import (
    FORMAT_VERSION,
    Records,
    parse_records,
    records_json,
    write_json_atomic,
)


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One strided slice of a sweep's item space: ``index`` of ``count``.

    ``index`` is zero-based internally; the CLI's ``--shard I/N`` flag
    and :attr:`label` are one-based for humans.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ShardError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ShardError(
                f"shard index must be in 0 .. {self.count - 1}, got {self.index}"
            )

    @property
    def label(self) -> str:
        """The human (one-based) form, e.g. ``"2/4"``."""
        return f"{self.index + 1}/{self.count}"

    def items(self, total: int) -> range:
        """The work-item indexes this shard owns (disjoint, covering)."""
        if total < 0:
            raise ShardError(f"total item count must be >= 0, got {total}")
        return range(self.index, total, self.count)


def parse_shard(text: str) -> ShardSpec:
    """Parse the CLI's one-based ``I/N`` form into a :class:`ShardSpec`.

    Rejects malformed strings, ``0/N``, ``I > N`` and ``N < 1`` with a
    :class:`~repro.exceptions.ShardError`.
    """
    head, sep, tail = text.partition("/")
    try:
        if not sep:
            raise ValueError("missing '/'")
        index, count = int(head), int(tail)
    except ValueError as exc:
        raise ShardError(
            f"malformed shard {text!r}; expected I/N, e.g. --shard 2/4"
        ) from exc
    if count < 1:
        raise ShardError(f"shard count must be >= 1, got {text!r}")
    if not 1 <= index <= count:
        raise ShardError(
            f"shard index must be in 1 .. {count}, got {text!r} "
            "(shards are one-based on the command line)"
        )
    return ShardSpec(index - 1, count)


@dataclass(slots=True)
class ShardArtifact:
    """One shard invocation's output, as persisted to JSON.

    Attributes
    ----------
    kind:
        The sweep kind's artifact tag (``"sweep"`` for the figure2 /
        group2 grids, the kind's own name otherwise); selects the row
        codec and the reduction.
    fingerprint:
        The *unsharded* spec fingerprint — identical across every shard
        of one sweep; merging mixes nothing else.
    shard:
        Which slice this artifact covers.
    total_items:
        The full sweep's item count (all shards must agree).
    meta:
        JSON-safe metadata the kind's reduction needs (for grid sweeps:
        ``m``, ``label``, ``seed``, ``utilizations``, ``n_tasksets``,
        ``methods``).
    records:
        Item index -> that item's rows, for every item this artifact
        covers.
    elapsed_seconds:
        This shard's wall-clock (merged results report the sum: total
        compute spent, not latency).
    """

    kind: str
    fingerprint: str
    shard: ShardSpec
    total_items: int
    meta: dict
    records: Records = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def covered_items(self) -> set[int]:
        """Work-item indexes this artifact accounts for."""
        return set(self.records)


def save_shard(path: str | Path, artifact: ShardArtifact) -> Path:
    """Atomically write one shard artifact as versioned JSON."""
    path = Path(path)
    write_json_atomic(path, {
        "version": FORMAT_VERSION,
        "kind": artifact.kind,
        "fingerprint": artifact.fingerprint,
        "shard": {"index": artifact.shard.index, "count": artifact.shard.count},
        "total_items": artifact.total_items,
        "meta": artifact.meta,
        "records": records_json(artifact.records),
        "elapsed_seconds": artifact.elapsed_seconds,
    }, ShardError)
    return path


def load_shard(path: str | Path) -> ShardArtifact:
    """Read and validate one shard artifact.

    Raises
    ------
    ShardError
        On a missing file, unreadable JSON, an unknown ``kind``, a
        record the kind's row codec rejects or a format-version
        mismatch.
    """
    # The workload-kind registry owns the set of artifact kinds and
    # each kind's row codec.
    from repro.engine.registry import spec_for_artifact

    path = Path(path)
    if not path.exists():
        raise ShardError(f"shard artifact {path} does not exist")
    try:
        payload = json.loads(path.read_text())
        if payload.get("version") != FORMAT_VERSION:
            raise ShardError(
                f"shard artifact {path} has format version "
                f"{payload.get('version')!r}, expected {FORMAT_VERSION}; "
                "re-run the shard to regenerate it"
            )
        kind = str(payload["kind"])
        try:
            row_codec = spec_for_artifact(kind).row_codec
        except ShardError as exc:
            raise ShardError(f"shard artifact {path}: {exc}") from None
        return ShardArtifact(
            kind=kind,
            fingerprint=str(payload["fingerprint"]),
            shard=ShardSpec(
                int(payload["shard"]["index"]), int(payload["shard"]["count"])
            ),
            total_items=int(payload["total_items"]),
            meta=dict(payload["meta"]),
            records=parse_records(
                payload["records"], row_codec, ShardError,
                f"shard artifact {path}",
            ),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )
    except ShardError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ShardError(f"shard artifact {path} is unreadable ({exc})") from exc


def validate_shard_set(artifacts: list[ShardArtifact]) -> None:
    """Check a shard set is mergeable: one sweep, complete, disjoint.

    Raises :class:`~repro.exceptions.ShardError` naming the first
    problem found: empty input, mixed kinds/fingerprints/shard counts,
    missing shards, items outside a shard's slice, or per-item
    gaps/overlaps in coverage.

    Several artifacts may share one shard index (the sub-shards of an
    earlier version's orchestration directory) as long as their item
    sets are pairwise disjoint; two *full* artifacts of the same shard
    still fail — as an item-level overlap rather than a duplicate-index
    error.
    """
    if not artifacts:
        raise ShardError("no shard artifacts to merge")
    first = artifacts[0]
    for artifact in artifacts[1:]:
        if artifact.kind != first.kind:
            raise ShardError(
                f"mixed artifact kinds: {first.kind!r} vs {artifact.kind!r}"
            )
        if artifact.fingerprint != first.fingerprint:
            raise ShardError(
                "shard artifacts belong to different sweeps "
                "(fingerprint mismatch); merge shards of one sweep only"
            )
        if artifact.shard.count != first.shard.count:
            raise ShardError(
                f"inconsistent shard counts: {first.shard.count} vs "
                f"{artifact.shard.count}"
            )
        if artifact.total_items != first.total_items:
            raise ShardError(
                f"inconsistent total item counts: {first.total_items} vs "
                f"{artifact.total_items}"
            )
        if artifact.meta != first.meta:
            raise ShardError("shard artifacts disagree on sweep metadata")

    seen_indexes = {artifact.shard.index for artifact in artifacts}
    missing_shards = sorted(set(range(first.shard.count)) - seen_indexes)
    if missing_shards:
        human = ", ".join(f"{i + 1}/{first.shard.count}" for i in missing_shards)
        raise ShardError(f"missing shards (gap): {human}")

    covered: set[int] = set()
    for artifact in artifacts:
        items = artifact.covered_items()
        outside = items - set(artifact.shard.items(artifact.total_items))
        if outside:
            raise ShardError(
                f"shard {artifact.shard.label} covers item {min(outside)} "
                "outside its slice (overlap); artifact is corrupt"
            )
        doubled = covered & items
        if doubled:
            raise ShardError(
                f"item {min(doubled)} is covered by more than one artifact "
                f"of shard {artifact.shard.label} (overlap); each item must "
                "be merged exactly once"
            )
        covered |= items
    gaps = set(range(first.total_items)) - covered
    if gaps:
        raise ShardError(
            f"merged shards leave {len(gaps)} items uncovered "
            f"(gap at item {min(gaps)}); was a shard interrupted?"
        )


def combine_shards(
    shards: Sequence[ShardArtifact | str | Path],
) -> ShardArtifact:
    """Validate a full shard set and union it into one artifact.

    Accepts loaded :class:`ShardArtifact` objects or paths to them.
    The result is the whole sweep as shard 1/1: every item's record,
    the shared metadata, and the summed shard wall-clocks.
    """
    artifacts = [
        shard if isinstance(shard, ShardArtifact) else load_shard(shard)
        for shard in shards
    ]
    validate_shard_set(artifacts)
    first = artifacts[0]
    records: Records = {}
    for artifact in artifacts:
        records.update(artifact.records)
    return ShardArtifact(
        kind=first.kind,
        fingerprint=first.fingerprint,
        shard=ShardSpec(0, 1),
        total_items=first.total_items,
        meta=first.meta,
        records=records,
        elapsed_seconds=sum(a.elapsed_seconds for a in artifacts),
    )

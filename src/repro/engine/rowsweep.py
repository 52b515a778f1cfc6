"""Shared runner/merger for row-per-item workload kinds.

The splitsweep experiment established the engine's second execution
shape (next to the chunked utilisation-grid sweeps): a corpus of
task-sets regenerated deterministically from the seed in every
invocation, one work item per task-set, each item yielding a fixed-
width *row* of primitives, rows reduced in corpus order so serial,
parallel, sharded and merged runs are bit-identical — float
accumulation included.

Every row-based kind (``splitsweep``, ``sensitivity``, ``simulate``,
``timing``) runs on this one shape: :func:`run_row_sweep` is the
generic execute-and-persist half (stream header/item/summary lines,
``map_unordered`` over an executor, shard-artifact save), and
:func:`collect_rows` is the generic merge half (shard-set validation,
per-item row decode, corpus-order reassembly).  Each kind supplies only
its evaluation function, row codec and reduction.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.exceptions import ShardError
from repro.engine.executors import make_executor
from repro.engine.shard import (
    ShardArtifact,
    ShardSpec,
    load_shard,
    save_shard,
    validate_shard_set,
)
from repro.engine.streaming import StreamWriter

__all__ = ["run_row_sweep", "collect_rows"]


def run_row_sweep(
    *,
    kind: str,
    fingerprint: str,
    total_items: int,
    meta: dict,
    evaluate: Callable,
    payload_for: Callable[[int], tuple],
    jobs: int = 1,
    executor_kind: str = "process",
    shard: ShardSpec | None = None,
    shard_out: str | Path | None = None,
    stream: str | Path | None = None,
) -> tuple[list[int], list[list]]:
    """Evaluate a (possibly sharded) row sweep and persist its outputs.

    ``evaluate`` must be a top-level picklable function taking
    ``payload_for(index)`` and returning ``(index, rows)`` where
    ``rows`` is a list of row tuples/lists of JSON primitives.
    Returns ``(indexes, rows_in_order)`` — the evaluated item indexes
    (the shard's strided slice, or the full range) and their rows in
    that order, ready for the kind's corpus-order reduction.
    """
    if shard is None and shard_out is not None:
        shard = ShardSpec(0, 1)
    indexes = (
        list(shard.items(total_items))
        if shard is not None
        else list(range(total_items))
    )
    payloads = [payload_for(index) for index in indexes]

    start_time = time.perf_counter()
    writer = StreamWriter(stream) if stream is not None else None
    rows_by_index: dict[int, list] = {}
    try:
        if writer is not None:
            writer.write_header(
                kind=kind,
                fingerprint=fingerprint,
                total_items=total_items,
                meta=meta,
                shard=(
                    {"index": shard.index, "count": shard.count}
                    if shard is not None
                    else None
                ),
            )
        with make_executor(jobs, kind=executor_kind) as executor:
            for index, rows in executor.map_unordered(evaluate, payloads):
                rows_by_index[index] = rows
                if writer is not None:
                    writer.write_item(index, rows=rows)
        if writer is not None:
            writer.write_summary(
                len(rows_by_index), time.perf_counter() - start_time
            )
    finally:
        if writer is not None:
            writer.close()

    rows_in_order = [rows_by_index[index] for index in indexes]
    if shard_out is not None:
        save_shard(
            shard_out,
            ShardArtifact(
                kind=kind,
                fingerprint=fingerprint,
                shard=shard,
                total_items=total_items,
                meta=meta,
                records=[
                    {
                        "item": index,
                        "rows": [list(row) for row in rows_by_index[index]],
                    }
                    for index in indexes
                ],
                elapsed_seconds=time.perf_counter() - start_time,
            ),
        )
    return indexes, rows_in_order


def collect_rows(
    shards: Sequence[ShardArtifact | str | Path],
    *,
    kind: str,
    row_codec: Callable[[Sequence], tuple],
    rows_per_item: int | None = None,
) -> tuple[ShardArtifact, list[list[tuple]]]:
    """Validate a shard set and reassemble its rows in corpus order.

    Returns ``(first_artifact, rows_in_order)``; the caller reduces
    ``rows_in_order`` exactly as its serial runner would (using
    ``first_artifact.meta`` / ``first_artifact.total_items`` for the
    reduction's parameters), which is what makes merged output
    bit-identical to the unsharded run.
    """
    artifacts = [
        shard if isinstance(shard, ShardArtifact) else load_shard(shard)
        for shard in shards
    ]
    validate_shard_set(artifacts)
    first = artifacts[0]
    if first.kind != kind:
        raise ShardError(
            f"expected {kind!r} shard artifacts; got {first.kind!r} "
            "(merge shard sets one kind at a time)"
        )
    rows_by_index: dict[int, list[tuple]] = {}
    for artifact in artifacts:
        for entry in artifact.records:
            try:
                rows = [row_codec(row) for row in entry["rows"]]
            except (TypeError, ValueError, KeyError) as exc:
                raise ShardError(
                    f"{kind} shard {artifact.shard.label} item "
                    f"{entry.get('item')} has a malformed row ({exc}); "
                    "artifact is corrupt"
                ) from exc
            if rows_per_item is not None and len(rows) != rows_per_item:
                raise ShardError(
                    f"{kind} shard {artifact.shard.label} item "
                    f"{entry['item']} has {len(rows)} rows, expected "
                    f"{rows_per_item}; artifact is corrupt"
                )
            rows_by_index[int(entry["item"])] = rows
    rows_in_order = [rows_by_index[index] for index in sorted(rows_by_index)]
    return first, rows_in_order

"""Validation layer over the durable result store.

Three checks, each returning typed report records (never exceptions —
an invalid store is a *finding*, not a crash; :class:`StoreError`
still surfaces when the database itself cannot be read):

* **Completeness** — every published run must still hold exactly the
  row set it was published with: ``expected_rows`` (recorded at
  publish time from the validated full-coverage artifact set) versus
  the rows actually present, naming every item of the workload's
  ``total_items`` that has no row left.  A truncated
  publication — rows lost to a partial copy or manual surgery — shows
  up here.
* **Drift** — two runs with the same workload fingerprint are the
  *same experiment*; identical results deduplicate into one run, so
  the mere existence of a second run for one fingerprint means the
  stored verdicts disagree.  The check names every differing
  ``(item, seq)`` pair so a flipped schedulability verdict is
  attributable to the exact task-set that flipped.
* **Version skew** — handled at open time by the store itself
  (:data:`~repro.engine.store.STORE_VERSION`).

``validate_store`` bundles the first two into one
:class:`ValidationReport`; the ``sweep-db validate`` CLI renders it
and exits non-zero when ``ok`` is false.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.store import ResultStore

__all__ = [
    "CompletenessIssue",
    "DriftIssue",
    "ValidationReport",
    "check_completeness",
    "check_drift",
    "validate_store",
]


@dataclass(frozen=True, slots=True)
class CompletenessIssue:
    """One run whose stored rows no longer match what was published."""

    run_id: int
    kind: str
    fingerprint: str
    expected_rows: int
    actual_rows: int
    missing_items: tuple[int, ...]

    def describe(self) -> str:
        note = (
            f"; missing items {list(self.missing_items[:10])}"
            + ("..." if len(self.missing_items) > 10 else "")
            if self.missing_items
            else ""
        )
        return (
            f"run {self.run_id} ({self.kind}, "
            f"{self.fingerprint[:12]}...): {self.actual_rows} rows "
            f"stored, {self.expected_rows} expected{note}"
        )


@dataclass(frozen=True, slots=True)
class DriftIssue:
    """One row on which two runs of the same workload disagree.

    ``payloads`` pairs with ``run_ids``; ``None`` marks a row absent
    from that run entirely.
    """

    kind: str
    fingerprint: str
    run_ids: tuple[int, int]
    item: int
    seq: int
    payloads: tuple[object | None, object | None]

    def describe(self) -> str:
        a, b = self.run_ids
        pa, pb = self.payloads
        return (
            f"{self.kind} {self.fingerprint[:12]}... item {self.item} "
            f"seq {self.seq}: run {a} has {pa!r}, run {b} has {pb!r}"
        )


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Everything ``validate_store`` found."""

    runs_checked: int
    incomplete: tuple[CompletenessIssue, ...]
    drift: tuple[DriftIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.incomplete and not self.drift


def check_completeness(store: ResultStore) -> tuple[CompletenessIssue, ...]:
    """Runs whose stored rows no longer match their publication."""
    issues = []
    for record in store.runs():
        actual = store.row_count(record.run_id)
        missing: tuple[int, ...] = ()
        if actual != record.expected_rows:
            present = {
                item for item, _seq, _payload in store.rows(record.run_id)
            }
            missing = tuple(
                item for item in range(record.total_items)
                if item not in present
            )
            issues.append(CompletenessIssue(
                run_id=record.run_id,
                kind=record.kind,
                fingerprint=record.fingerprint,
                expected_rows=record.expected_rows,
                actual_rows=actual,
                missing_items=missing,
            ))
    return tuple(issues)


def check_drift(store: ResultStore) -> tuple[DriftIssue, ...]:
    """Row-level disagreements between runs of one workload.

    Runs are grouped by ``(kind, fingerprint)`` and each later run is
    compared against the group's oldest (the baseline): published
    results are append-only, so the oldest run is the reference the
    later ones drifted from.
    """
    groups: dict[tuple[str, str], list] = {}
    for record in store.runs():
        groups.setdefault((record.kind, record.fingerprint), []).append(record)

    issues = []
    for (kind, fingerprint), members in groups.items():
        if len(members) < 2:
            continue
        baseline = members[0]
        base_rows = {
            (item, seq): payload
            for item, seq, payload in store.rows(baseline.run_id)
        }
        for other in members[1:]:
            other_rows = {
                (item, seq): payload
                for item, seq, payload in store.rows(other.run_id)
            }
            for key in sorted(base_rows.keys() | other_rows.keys()):
                left = base_rows.get(key)
                right = other_rows.get(key)
                if left != right:
                    issues.append(DriftIssue(
                        kind=kind,
                        fingerprint=fingerprint,
                        run_ids=(baseline.run_id, other.run_id),
                        item=key[0],
                        seq=key[1],
                        payloads=(left, right),
                    ))
    return tuple(issues)


def validate_store(store: ResultStore) -> ValidationReport:
    """Run every check against one store."""
    runs = store.runs()
    return ValidationReport(
        runs_checked=len(runs),
        incomplete=check_completeness(store),
        drift=check_drift(store),
    )

"""Output helpers: aligned ASCII tables, ASCII charts and CSV files.

No plotting library is assumed; figures are rendered as aligned text
series (one row per utilisation point) plus an optional character
chart, and every experiment can dump a CSV for external plotting.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Sequence
from pathlib import Path

from repro.engine.results import SweepResult
from repro.exceptions import AnalysisError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: list[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def sweep_rows(result: SweepResult) -> list[list[object]]:
    """Rows of ``[U, %method1, %method2, ...]`` for :func:`format_table`."""
    rows: list[list[object]] = []
    for point in result.points:
        row: list[object] = [point.utilization]
        row.extend(100.0 * point.ratio(method) for method in result.methods)
        rows.append(row)
    return rows


def sweep_table(result: SweepResult, title: str | None = None) -> str:
    """The standard sweep report: utilisation vs % schedulable."""
    headers = ["U"] + [f"{m} %" for m in result.methods]
    return format_table(headers, sweep_rows(result), title=title)


def sweep_chart(result: SweepResult, height: int = 12) -> str:
    """A rough character chart of the sweep (one column per U point).

    Each method gets a marker (its first letter); columns share the
    x-axis of the sweep and y runs 0..100%.
    """
    markers = {}
    for method in result.methods:
        marker = method[0]
        while marker in markers.values():
            marker += "'"
        markers[method] = marker
    width = len(result.points)
    grid = [[" "] * width for _ in range(height + 1)]
    for method in result.methods:
        for col, (_, percent) in enumerate(result.series(method)):
            row = height - round(percent / 100.0 * height)
            cell = grid[row][col]
            grid[row][col] = "*" if cell not in (" ",) else markers[method]
    lines = [f"{'100%':>5} |" + "".join(grid[0])]
    for r in range(1, height):
        lines.append("      |" + "".join(grid[r]))
    lines.append(f"{'0%':>5} |" + "".join(grid[height]))
    lines.append(
        "      +" + "-" * width
        + f"  U from {result.points[0].utilization:g} to "
        f"{result.points[-1].utilization:g}"
    )
    legend = "  ".join(f"{marker}={method}" for method, marker in markers.items())
    lines.append(f"       {legend}  (*=overlap)")
    return "\n".join(lines)


def split_sweep_table(
    points: Sequence,
    title: str | None = None,
    method: str = "LP-ILP",
) -> str:
    """The standard split-sweep report (shared by every CLI handler
    that prints :class:`~repro.experiments.splitsweep.SplitSweepPoint`
    lists, so their headers and formatting cannot drift)."""
    return format_table(
        ["NPR size cap", "mean q", "mean U", f"{method} schedulable %"],
        [[f"{p.threshold:g}", f"{p.mean_q:.1f}", f"{p.mean_utilization:.2f}",
          f"{100 * p.ratio:.1f}"] for p in points],
        title=title,
    )


def write_split_sweep_csv(points: Sequence, path: str | Path) -> Path:
    """Dump split-sweep points in the standard CSV layout."""
    return write_csv(
        path,
        ["threshold", "mean_q", "mean_utilization", "ratio"],
        [[p.threshold, p.mean_q, p.mean_utilization, p.ratio] for p in points],
    )


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> Path:
    """Write rows to ``path`` (parent directories created).

    Atomic (pid-unique tmp + rename, like every artifact writer in the
    stack): a CSV is often the final published result of a long sweep,
    and a crash mid-write must not leave a torn file at the real name.
    A path that cannot be written raises
    :class:`~repro.exceptions.AnalysisError` naming it.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(headers)
                writer.writerows(rows)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise AnalysisError(f"cannot write {target}: {exc}") from exc
    return target


def write_sweep_csv(result: SweepResult, path: str | Path) -> Path:
    """Dump a sweep in the standard CSV layout."""
    headers = ["utilization"] + list(result.methods)
    rows = []
    for point in result.points:
        rows.append(
            [point.utilization] + [point.ratio(m) for m in result.methods]
        )
    return write_csv(path, headers, rows)

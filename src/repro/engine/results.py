"""Sweep result types: one point per utilisation, counts per method.

These are the stable public result types of the experiment stack
(:mod:`repro.engine` re-exports them).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import AnalysisError


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Result at one utilisation: schedulable counts per method."""

    utilization: float
    n_tasksets: int
    schedulable: dict[str, int]

    def ratio(self, method: str) -> float:
        """Fraction of schedulable task-sets for ``method`` (0..1)."""
        if method not in self.schedulable:
            raise AnalysisError(
                f"method {method!r} not part of this sweep point; "
                f"have {sorted(self.schedulable)}"
            )
        return self.schedulable[method] / self.n_tasksets if self.n_tasksets else 0.0


@dataclass(frozen=True, slots=True)
class SweepResult:
    """A full sweep: one :class:`SweepPoint` per utilisation."""

    m: int
    label: str
    seed: int
    points: tuple[SweepPoint, ...]
    methods: tuple[str, ...]
    elapsed_seconds: float = 0.0

    def series(self, method: str) -> list[tuple[float, float]]:
        """``(utilization, percent schedulable)`` pairs for one method."""
        if method not in self.methods:
            raise AnalysisError(f"method {method!r} not part of this sweep")
        return [(p.utilization, 100.0 * p.ratio(method)) for p in self.points]

    def crossover(self, method: str, threshold: float = 0.5) -> float | None:
        """First utilisation at which the ratio drops below ``threshold``.

        A coarse summary statistic for comparing methods: the paper's
        "performance drops earlier" claims are about exactly this.
        Returns ``None`` when the method never drops below.
        """
        for point in self.points:
            if point.ratio(method) < threshold:
                return point.utilization
        return None

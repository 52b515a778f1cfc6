"""Period assignment.

The evaluation derives the period from a target utilisation
(``T = vol/u``, implicit deadline ``D = T``).
"""

from __future__ import annotations

from repro.exceptions import GenerationError
from repro.model.dag import DAG


def period_from_utilization(dag: DAG, utilization: float) -> float:
    """``T = vol(G)/u`` — the period that realises ``utilization``.

    Raises
    ------
    GenerationError
        If ``utilization`` is not positive.
    """
    if utilization <= 0:
        raise GenerationError(f"utilization must be > 0, got {utilization}")
    return dag.volume / utilization


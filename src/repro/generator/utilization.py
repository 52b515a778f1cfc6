"""Utilisation draws for DAG tasks.

The paper fixes ``β = 0.5`` as the *minimum DAG-task utilisation* but
does not publish the upper end of the per-task draw. Two modes are
provided:

* ``"beta-scaled"`` (default) — ``u ~ U[β, β · vol/L]``: the window
  scales with the task's degree of parallelism (``vol/L`` is the
  average width of the DAG), so a sequential task draws exactly ``β``
  and a width-4 task draws up to ``4β``. This reading reproduces the
  paper's curve shapes: small/sequential tasks keep large slack
  (``D − vol = vol(1/u − 1)``) and survive the blocking terms at low
  total utilisation, while parallel tasks carry the utilisation.
* ``"uniform"`` — ``u ~ U[β, min(u_task_max, vol/L)]``: the naive
  reading; kept for sensitivity studies (it collapses the curves much
  earlier, see the ablation bench).

Both modes clamp at ``vol/L`` so the implied period ``T = vol/u``
satisfies ``T >= L`` (otherwise the task could not meet an implicit
deadline even on infinitely many cores).
"""

from __future__ import annotations

from repro.exceptions import GenerationError
from repro.generator.profiles import TasksetProfile
from repro.graph.paths import longest_path_length
from repro.model.dag import DAG
from repro.rng import Generator


def utilization_ceiling(dag: DAG, profile: TasksetProfile) -> float:
    """Largest utilisation this DAG can carry under ``profile``.

    ``beta-scaled``: ``min(β · vol/L, u_task_max, vol/L)``;
    ``uniform``:     ``min(u_task_max, vol/L)``.
    """
    ratio = dag.volume / longest_path_length(dag)
    if profile.utilization_mode == "beta-scaled":
        ceiling = min(profile.beta * ratio, ratio)
    else:
        ceiling = ratio
    if profile.u_task_max is not None:
        ceiling = min(ceiling, profile.u_task_max)
    return ceiling


def draw_task_utilization(
    rng: Generator,
    dag: DAG,
    profile: TasksetProfile,
) -> float:
    """Draw one task utilisation uniformly from ``[β, ceiling]``.

    When the ceiling collapses to ``β`` or below (e.g. a sequential
    task in beta-scaled mode, where ``β · vol/L = β``), the ceiling
    itself is returned.

    Raises
    ------
    GenerationError
        If the DAG volume is non-positive (cannot happen for valid
        DAGs; defensive).
    """
    if dag.volume <= 0:  # pragma: no cover - DAG guarantees positive WCETs
        raise GenerationError("DAG volume must be positive")
    ceiling = utilization_ceiling(dag, profile)
    if ceiling <= profile.beta:
        return ceiling
    return float(rng.uniform(profile.beta, ceiling))

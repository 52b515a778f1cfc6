"""Experiment harnesses regenerating the paper's tables and figures.

* :mod:`repro.experiments.figure1` — the running example of Section IV
  (Figure 1, Tables I–III);
* :mod:`repro.experiments.figure2` — the schedulability sweeps of
  Figure 2 (m = 4, 8, 16);
* :mod:`repro.experiments.group2` — the unplotted second-group result
  (LP-max ≈ LP-ILP for uniformly parallel task-sets);
* :mod:`repro.experiments.timing` — the analysis-runtime measurement;
* :mod:`repro.experiments.splitsweep`, ``sensitivity``, ``simulate`` —
  extension sweeps beyond the paper's figures;
* :mod:`repro.experiments.reporting` — tables, charts and CSV output.

Every sweep runs as a declarative job
(:class:`~repro.engine.jobspec.JobSpec`) through
:func:`repro.engine.session.run_job` or ``python -m repro sweep-run``.
"""

from repro.experiments.figure1 import (
    figure1_lp_tasks,
    figure1_table1,
    figure1_table2,
    figure1_table3,
    paper_deltas,
)

__all__ = [
    "figure1_lp_tasks",
    "figure1_table1",
    "figure1_table2",
    "figure1_table3",
    "paper_deltas",
]

"""The experiment harness: the paper's evaluation as a runnable subsystem.

- :mod:`repro.experiments.runner` — :class:`ExperimentRunner` runs one
  (network, algorithm, partitioner, eps, k, m) point through a
  :class:`~repro.api.session.MonitoringSession` (``run_one``), and
  plans grids as :class:`~repro.exec.task.RunTask` graphs
  (``plan_grid``) that pluggable :mod:`repro.exec` executors drive
  serially, across worker processes, or as snapshot-bounded segments
  (``run_grid``).
- :mod:`repro.experiments.results` — result dataclasses with
  ``repro-bench-v1`` JSON serialization.
- :mod:`repro.experiments.presets` — paper-scenario presets: the Sec. V
  classification comparison, the Sec. IV-E separation sweep, and the
  long-stream crossover chart.
- :mod:`repro.experiments.figures` — ASCII plots from those documents.
- :mod:`repro.experiments.cli` — ``python -m repro.experiments`` with
  nine subcommands: ``messages``, ``eps``, ``sites``, ``accuracy``,
  ``runtime``, ``classify``, ``separation``, ``long-crossover``,
  ``figures``.

Wall-clock performance is measured by ``bench/`` (``python3
bench/run.py``), not here.
"""

from repro.experiments.presets import (
    classification_experiment,
    long_crossover_experiment,
    separation_experiment,
)
from repro.experiments.results import (
    SCHEMA,
    CheckpointRecord,
    ExperimentResult,
    RunResult,
    strip_timing,
)
from repro.experiments.runner import (
    ExperimentRunner,
    checkpoint_schedule,
    make_partitioner,
)

__all__ = [
    "SCHEMA",
    "CheckpointRecord",
    "RunResult",
    "ExperimentResult",
    "ExperimentRunner",
    "checkpoint_schedule",
    "make_partitioner",
    "classification_experiment",
    "long_crossover_experiment",
    "separation_experiment",
    "strip_timing",
]

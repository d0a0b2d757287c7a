"""The pluggable execution layer: task descriptors and executors.

Planners (e.g. :meth:`~repro.experiments.runner.ExperimentRunner.plan_grid`)
emit a task graph — a list of frozen, JSON-serializable
:class:`RunTask` descriptors — and an :class:`Executor` drives it:

- :class:`SerialExecutor` — in-process, in task order (the reference);
- :class:`MultiprocessExecutor` — worker processes, one grid cell
  each, for parallel sweeps on LINK/MUNIN-sized grids;
- :class:`ChunkedExecutor` — one long stream advanced segment-by-segment
  through session snapshot bundles, surviving worker death, for the
  m >~ 1M runs.

All three are registered under their CLI names
(:func:`register_executor` / :func:`make_executor` mirror the algorithm
and counter-backend registries of :mod:`repro.api.registry`), all honor
the same ``resume_dir`` caching, and all produce byte-identical results
for the same descriptors — see ``docs/execution.md`` for the contract.
"""

from repro.exec.base import (
    ExecutionOutcome,
    Executor,
    ExecutorEntry,
    executor_names,
    get_executor,
    make_executor,
    register_executor,
)
from repro.exec.chunked import ChunkedExecutor
from repro.exec.multiprocess import MultiprocessExecutor
from repro.exec.serial import SerialExecutor
from repro.exec.task import TASK_SCHEMA, RunTask

__all__ = [
    "TASK_SCHEMA",
    "RunTask",
    "ExecutionOutcome",
    "Executor",
    "ExecutorEntry",
    "SerialExecutor",
    "MultiprocessExecutor",
    "ChunkedExecutor",
    "executor_names",
    "get_executor",
    "make_executor",
    "register_executor",
]

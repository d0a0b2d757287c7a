"""The parallel-grid executor: worker processes, one task each.

Workers receive a :class:`~repro.exec.task.RunTask` as a plain dict and
rebuild the whole run — runner, session, stream generators — from the
descriptor, exactly like :meth:`RunTask.execute` in-process.  Because
every generator is derived from descriptor-embedded seeds via ``numpy``
seed-sequence spawn keys (never from worker identity, scheduling order,
or global RNG state), a 4-worker grid is byte-identical to a serial one;
only completion order differs, and the shared driver re-aligns results
to task order.

Workers start from :func:`~repro.utils.procs.worker_context`: forks
of a preloaded forkserver, never of the driver, so no driver state is
inherited, which keeps them safe under threaded parents and identical
across OSes.  A worker *crash*
(e.g. OOM kill) aborts the whole grid — per-task progress down to the
last checkpoint survives in ``resume_dir``, and re-invoking the same
grid continues from there; for single long streams that must survive
worker death *within* one invocation, use the chunked executor instead.
"""

from __future__ import annotations

import concurrent.futures
import os

from repro.errors import ExecutionError
from repro.exec.base import Executor, _reject_unknown_options, register_executor
from repro.exec.task import RunTask
from repro.utils.procs import worker_context


def _run_task_worker(payload: dict) -> dict | None:
    """Worker entry point: rebuild the task and run it to completion.

    Returns the result as a plain dict (``RunResult.to_dict``) so only
    JSON-ready types cross the process boundary, or ``None`` when
    ``stop_after`` interrupted the run (snapshot left on disk).
    """
    task = RunTask.from_dict(payload["task"])
    run = task.execute(
        snapshot_path=payload["snapshot"], stop_after=payload["stop_after"]
    )
    return None if run is None else run.to_dict()


class MultiprocessExecutor(Executor):
    """Fans independent tasks out over a process pool."""

    name = "multiprocess"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, int(jobs))

    def _execute(self, tasks, pending, *, resume_dir, stop_after):
        from repro.experiments.results import RunResult

        payloads = {
            index: {
                "task": tasks[index].to_dict(),
                "snapshot": (
                    None
                    if resume_dir is None
                    else str(self._snapshot_path(resume_dir, tasks[index]))
                ),
                "stop_after": stop_after,
            }
            for index in pending
        }
        workers = min(self.jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=worker_context()
        ) as pool:
            futures = {
                pool.submit(_run_task_worker, payload): index
                for index, payload in payloads.items()
            }
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    payload = future.result()
                except concurrent.futures.process.BrokenProcessPool as exc:
                    # A broken pool poisons every in-flight future, so
                    # the victim task cannot be identified from here.
                    raise ExecutionError(
                        "a worker process died mid-grid; completed tasks "
                        "are cached under the resume directory (re-invoke "
                        "to continue), or use the 'chunked' executor for "
                        "within-run fault tolerance"
                    ) from exc
                yield index, (
                    None if payload is None else RunResult.from_dict(payload)
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiprocessExecutor(jobs={self.jobs})"


def _multiprocess_factory(options: dict) -> MultiprocessExecutor:
    _reject_unknown_options(options, "multiprocess", known=("jobs",))
    return MultiprocessExecutor(jobs=options.get("jobs"))


register_executor(
    "multiprocess",
    _multiprocess_factory,
    description="fan grid cells out over worker processes",
)

"""The long-stream executor: snapshot-bounded segments, crash-tolerant.

A single m >~ 1M run is too much to lose to one worker death.  The
chunked executor therefore never asks a worker for the whole stream: it
splits each task at its checkpoint schedule into *segments* — worker
``i`` advances the run from the last snapshot bundle to the next
segment boundary (a checkpoint, since snapshots land only there), then
exits.  Every segment runs in a fresh worker process; if one dies
mid-segment, the bundle from the previous boundary is still on disk and
the driver simply re-runs the segment, so the run survives worker death
with at most one segment of rework.  Results stay byte-identical to the
serial executor because segment hand-off *is* the session
snapshot/restore contract of PR 3.

``segment_events`` coarsens the segmentation: a boundary is only taken
once at least that many events have passed since the previous one
(default: every checkpoint is a boundary).  For fine-grained chunking of
a long run, give the task a denser checkpoint schedule.

Multiple tasks interleave up to ``jobs`` concurrent segment processes
(one in-flight segment per task — segments of one stream are inherently
sequential).
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import shutil
import tempfile
from collections import deque
from pathlib import Path

from repro.api.session import MonitoringSession
from repro.errors import ExecutionError, SessionError
from repro.exec.base import Executor, _reject_unknown_options, register_executor
from repro.exec.task import RunTask
from repro.utils.procs import worker_context


def _segment_worker(payload: dict) -> None:
    """Segment entry point: advance one run from its bundle to a boundary.

    ``payload["stop_after"]`` is the boundary (an ``int`` checkpoint) or
    ``None`` for the completion segment, which writes the finished
    result to ``payload["result_path"]`` for the driver to collect.

    ``payload["fault_marker"]``, when set, names a path the *first*
    worker to observe it missing creates before dying abruptly — the
    test hook for the crash-recovery path.
    """
    marker = payload.get("fault_marker")
    if marker is not None:
        from repro.dist.transport import create_once

        if create_once(marker):
            os._exit(23)  # abrupt death: no cleanup, no exception
    task = RunTask.from_dict(payload["task"])
    run = task.execute(
        snapshot_path=payload["snapshot"], stop_after=payload["stop_after"]
    )
    if run is not None:
        Path(payload["result_path"]).write_text(
            json.dumps(run.to_dict(), sort_keys=True) + "\n"
        )


class _TaskState:
    """Driver-side progress of one task through its segment plan."""

    __slots__ = ("index", "task", "targets", "complete", "cursor", "retries",
                 "process")

    def __init__(self, index, task, targets, complete) -> None:
        self.index = index
        self.task = task
        #: Successive ``stop_after`` values; a trailing ``None`` means the
        #: last segment runs the task to completion.
        self.targets = targets
        #: Whether the plan ends in completion (False under ``stop_after``).
        self.complete = complete
        self.cursor = 0
        self.retries = 0
        self.process = None


class ChunkedExecutor(Executor):
    """Runs each task as a chain of snapshot-bounded segment processes."""

    name = "chunked"

    def __init__(
        self,
        *,
        segment_events: int | None = None,
        jobs: int | None = None,
        max_retries: int = 2,
    ) -> None:
        if segment_events is not None:
            segment_events = int(segment_events)
            if segment_events <= 0:
                raise ExecutionError(
                    f"segment_events must be positive, got {segment_events}"
                )
        self.segment_events = segment_events
        self.jobs = max(1, int(jobs)) if jobs is not None else 1
        self.max_retries = max(0, int(max_retries))
        #: Test hook threaded into segment payloads (see _segment_worker).
        self._fault_marker = None

    # ------------------------------------------------------------------
    def _segment_plan(self, task: RunTask, stop_after, position: int):
        """``(targets, complete)`` for one task, skipping done segments.

        Boundaries are checkpoints at least ``segment_events`` apart;
        boundaries at or before ``position`` (the existing bundle's
        stream position) are dropped, so resumed invocations do not
        re-run finished segments.
        """
        internal = [c for c in task.checkpoints if c < task.n_events]
        boundaries = []
        last = 0
        for checkpoint in internal:
            if (
                self.segment_events is None
                or checkpoint - last >= self.segment_events
            ):
                boundaries.append(checkpoint)
                last = checkpoint
        stop_checkpoint = None
        if stop_after is not None:
            for checkpoint in internal:
                if checkpoint >= stop_after:
                    stop_checkpoint = checkpoint
                    break
        if stop_checkpoint is None:
            targets = [b for b in boundaries if b > position]
            return [*targets, None], True
        targets = [b for b in boundaries if position < b < stop_checkpoint]
        targets.append(stop_checkpoint)
        return targets, False

    @staticmethod
    def _snapshot_position(path) -> int:
        """Stream position recorded in an existing bundle (0 if none)."""
        try:
            meta = MonitoringSession.peek(path)
        except SessionError:
            return 0
        runner_state = (meta.get("extra") or {}).get("runner") or {}
        return int(runner_state.get("produced", 0))

    # ------------------------------------------------------------------
    def _execute(self, tasks, pending, *, resume_dir, stop_after):
        scratch = None
        if resume_dir is None:
            # Bundles must live somewhere even for one-shot invocations;
            # a private scratch directory still makes every *segment*
            # crash recoverable, it just doesn't outlive this call.
            scratch = tempfile.mkdtemp(prefix="repro-chunked-")
            resume_dir = Path(scratch)
        try:
            yield from self._drive(tasks, pending, resume_dir, stop_after)
        finally:
            for state in getattr(self, "_active", ()):  # pragma: no cover
                if state.process is not None:
                    state.process.terminate()
                    state.process.join()
                    state.process.close()
                    state.process = None
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)

    def _drive(self, tasks, pending, resume_dir, stop_after):
        from repro.experiments.results import RunResult

        context = worker_context()
        ready: deque[_TaskState] = deque()
        for index in pending:
            task = tasks[index]
            position = self._snapshot_position(
                self._snapshot_path(resume_dir, task)
            )
            targets, complete = self._segment_plan(task, stop_after, position)
            ready.append(_TaskState(index, task, targets, complete))
        active: list[_TaskState] = []
        self._active = active
        while ready or active:
            while ready and len(active) < self.jobs:
                state = ready.popleft()
                state.process = context.Process(
                    target=_segment_worker,
                    args=(self._payload(state, resume_dir),),
                )
                state.process.start()
                active.append(state)
            finished = self._wait_any(active)
            for state in finished:
                active.remove(state)
                exitcode = state.process.exitcode
                state.process.close()
                state.process = None
                if exitcode != 0:
                    state.retries += 1
                    if state.retries > self.max_retries:
                        raise ExecutionError(
                            f"segment worker for task "
                            f"{state.task.cache_key!r} failed "
                            f"{state.retries} times (last exit code "
                            f"{exitcode}); the last good snapshot remains "
                            f"under {resume_dir}"
                        )
                    ready.append(state)  # re-run from the last bundle
                    continue
                state.retries = 0
                state.cursor += 1
                if state.cursor < len(state.targets):
                    ready.append(state)
                    continue
                result_path = self._result_path(resume_dir, state.task)
                if not state.complete and not result_path.is_file():
                    yield state.index, None  # stopped early, bundle kept
                    continue
                # A stop-bounded plan can still finish: when the stop
                # checkpoint was already behind the bundle, the segment
                # runs through to n_events and writes the result.
                if not result_path.is_file():
                    raise ExecutionError(
                        f"completion segment of task "
                        f"{state.task.cache_key!r} exited cleanly but "
                        f"wrote no result to {result_path}"
                    )
                yield state.index, RunResult.from_dict(
                    json.loads(result_path.read_text())
                )

    def _payload(self, state: _TaskState, resume_dir) -> dict:
        return {
            "task": state.task.to_dict(),
            "snapshot": str(self._snapshot_path(resume_dir, state.task)),
            "stop_after": state.targets[state.cursor],
            "result_path": str(self._result_path(resume_dir, state.task)),
            "fault_marker": self._fault_marker,
        }

    @staticmethod
    def _wait_any(active) -> list[_TaskState]:
        """Block until at least one active segment process exits."""
        sentinels = {state.process.sentinel: state for state in active}
        done = multiprocessing.connection.wait(list(sentinels))
        finished = [sentinels[s] for s in done]
        for state in finished:
            state.process.join()
        return finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedExecutor(segment_events={self.segment_events}, "
            f"jobs={self.jobs}, max_retries={self.max_retries})"
        )


def _chunked_factory(options: dict) -> ChunkedExecutor:
    _reject_unknown_options(
        options, "chunked", known=("segment_events", "jobs", "max_retries")
    )
    return ChunkedExecutor(
        segment_events=options.get("segment_events"),
        jobs=options.get("jobs"),
        max_retries=options.get("max_retries", 2),
    )


register_executor(
    "chunked",
    _chunked_factory,
    description=(
        "advance long streams segment-by-segment through snapshot bundles; "
        "survives worker death"
    ),
)

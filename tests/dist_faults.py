"""Shared fault-injection helpers for the distributed and executor suites.

The runtime's transport ends accept *declarative* fault specs — plain
dicts, so they pickle into worker processes unchanged (see
``repro.dist.transport`` and ``repro.net.transport``).  These helpers build the specs, and
:class:`DieOnceMarker` manages the marker file behind the
die-once-then-recover pattern both the dist suite and ``test_exec.py``'s
chunked worker-death tests rely on.
"""

from __future__ import annotations

import os

import pytest

from repro.dist.recovery import CRASH_POINTS, run_crashing_coordinator
from repro.dist.transport import FAULT_EXIT_CODE, create_once
from repro.utils.procs import worker_context

__all__ = [
    "CRASH_POINTS",
    "FAULT_EXIT_CODE",
    "DieOnceMarker",
    "coordinator_crash",
    "run_crashing_child",
    "kill_after",
    "delay_send",
    "delay_recv",
    "sever_after",
    "drop_sends",
    "sockbuf",
    "discard_frames",
    "merge",
]


class DieOnceMarker:
    """A marker file arming exactly one injected death.

    The first worker to create the marker dies; respawned incarnations
    see it and survive, so a faulty run recovers deterministically.
    ``fired`` reports whether any worker took the fault — the assertion
    that a crash-recovery test actually exercised the crash.
    """

    def __init__(self, directory, name: str = "die-once") -> None:
        self.path = str(os.path.join(str(directory), name))

    @property
    def fired(self) -> bool:
        return os.path.exists(self.path)

    def arm(self) -> bool:
        """Claim the marker from the driver side (see ``create_once``)."""
        return create_once(self.path)

    def reset(self) -> None:
        """Disarm and re-arm: the next observer dies again."""
        if self.fired:
            os.remove(self.path)


def coordinator_crash(seq: int, point: str) -> dict:
    """Kill the *coordinator* at a named durability point of round ``seq``.

    ``point`` is one of :data:`~repro.dist.recovery.CRASH_POINTS`:
    ``pre-append`` (round lost, recovery replays nothing for it),
    ``post-append`` (round durable but unapplied — recovery must replay
    it), or ``mid-checkpoint`` (torn snapshot bundle left behind — the
    stale-``meta.json`` discipline must ignore it).  The spec is consumed
    by :class:`~repro.dist.recovery.DurableCoordinator` via the
    ``wal_crash`` session kwarg and fires ``os._exit(FAULT_EXIT_CODE)``.
    """
    if point not in CRASH_POINTS:
        raise ValueError(f"unknown crash point {point!r}; "
                         f"expected one of {CRASH_POINTS}")
    return {"seq": int(seq), "point": str(point)}


def run_crashing_child(payload) -> int:
    """Run ``run_crashing_coordinator(payload)`` in a worker child; its exit code."""
    child = worker_context().Process(target=run_crashing_coordinator, args=(payload,))
    child.start()
    child.join(timeout=180)
    if child.is_alive():  # pragma: no cover - hang diagnostics
        child.kill()
        child.join()
        pytest.fail("crashing-coordinator child hung")
    return child.exitcode


def kill_after(sends: int, marker: DieOnceMarker | str | None = None) -> dict:
    """Die abruptly (``os._exit``) before the ``sends + 1``-th send.

    With a ``marker`` only the first incarnation dies (the recovery
    pattern); without one every incarnation dies, which turns a
    respawning driver into a permanent-failure test.
    """
    spec = {"kill_after_sends": int(sends)}
    if marker is not None:
        spec["once_marker"] = (
            marker.path if isinstance(marker, DieOnceMarker) else str(marker)
        )
    return spec


def delay_send(seconds: float) -> dict:
    """Sleep before every send — a slow producer."""
    return {"delay_send": float(seconds)}


def delay_recv(seconds: float) -> dict:
    """Sleep after every receive — a slow consumer (backpressure source)."""
    return {"delay_recv": float(seconds)}


def sever_after(sends: int, marker: DieOnceMarker | str | None = None) -> dict:
    """Abruptly close the TCP connection before the ``sends + 1``-th send.

    A simulated network cut: the process survives and re-dials, so this exercises reconnect + replay rather
    than respawn.  A ``marker`` arms the cut exactly once.
    """
    spec = {"sever_after_sends": int(sends)}
    if marker is not None:
        spec["sever_marker"] = (
            marker.path if isinstance(marker, DieOnceMarker) else str(marker)
        )
    return spec


def drop_sends(frames: int) -> dict:
    """Silently discard the first N payload frames instead of sending."""
    return {"drop_sends": int(frames)}


def sockbuf(nbytes: int) -> dict:
    """Shrink SO_SNDBUF/SO_RCVBUF — the narrow-pipe backpressure fault."""
    return {"sockbuf": int(nbytes)}


def discard_frames(frames: int) -> dict:
    """Listener-side: eat the first N decoded frames and sever the
    connection — deterministic in-flight loss for the replay tests."""
    return {"discard_frames": int(frames)}


def merge(*specs: dict) -> dict:
    """Combine fault specs; later specs win on key conflicts."""
    merged: dict = {}
    for spec in specs:
        merged.update(spec)
    return merged

"""Primitives shared by the distributed runtime's transport ends.

The wire itself is :mod:`repro.net` (TCP); this module holds what its
ends, the chunked executor and the recovery harness share: the
liveness-poll cadence, the injected-fault exit code, the die-once
marker, and the :class:`TransportClosed` error.

Fault specs are plain dicts — built by the helpers in
``tests/dist_faults.py`` — rather than callables, so they pickle into
worker processes unchanged.  The shared keys (all optional;
:mod:`repro.net.transport` and :mod:`repro.net.endpoint` add the
network faults):

``kill_after_sends``
    Die abruptly (``os._exit``) *before* the Nth successful send.
``once_marker``
    Path guarding the kill: the first process to create the marker file
    dies, later incarnations see it and survive — the same
    die-once-then-recover pattern as the chunked executor's
    ``_fault_marker`` (see ``create_once``).
``delay_send`` / ``delay_recv``
    Seconds to sleep before each send / after each receive — the
    slow-producer and slow-consumer injection used by the backpressure
    tests.
"""

from __future__ import annotations

import os

from repro.errors import ExecutionError

#: Seconds between liveness polls while a transport end is blocked.
POLL_INTERVAL = 0.05

#: Exit code used by injected kills (distinct from Python tracebacks).
FAULT_EXIT_CODE = 43


def create_once(marker) -> bool:
    """Atomically create ``marker``; True only for the first creator.

    The shared die-once primitive: a faulty worker checks the marker
    before dying so exactly one incarnation dies and its replacement
    runs clean.  Also used directly by ``test_exec.py``'s chunked-
    executor worker-death tests via ``tests/dist_faults.py``.
    """
    try:
        fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class TransportClosed(ExecutionError):
    """The peer of a blocking transport operation is gone."""

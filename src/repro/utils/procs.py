"""How the library starts worker processes: forks of one warm server.

Every worker the library creates is started from :func:`worker_context`.
Where the platform has the ``forkserver`` start method (every POSIX
system), its server process has already imported :data:`PRELOAD`, so a
start forks a warm interpreter instead of booting one that re-imports
NumPy and ``repro``; elsewhere it is ``spawn``.  Either way a worker
inherits no state of the process that starts it, so payloads and entry
points follow the ``spawn`` pickling rules.  The caveats (first start
boots the server, preload needs ``repro`` importable from the
environment) are in ``docs/performance.md``.
"""

from __future__ import annotations

import multiprocessing

#: Modules holding the worker entry points, imported by the server.
PRELOAD = (
    "repro.dist.site",
    "repro.exec.multiprocess",
    "repro.exec.chunked",
)


def worker_context():
    """The multiprocessing context every library worker is started from."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(list(PRELOAD))
    return context

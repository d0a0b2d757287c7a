"""A worker target that imports nothing from ``repro``.

Started through :func:`repro.utils.procs.worker_context`, it reports
whether the preload modules were already imported when it began to run:
only the forkserver's preload can have put them in ``sys.modules``,
because unpickling this target imports this module alone.
"""

import sys

#: Exit code of a probe that found a preload module missing.
MISSING = 3


def probe(modules) -> None:
    """Exit 0 when every name in ``modules`` is imported, else ``MISSING``."""
    sys.exit(0 if all(name in sys.modules for name in modules) else MISSING)

"""Read-serving layer over a live monitoring session.

The paper's coordinator maintains anytime ``(1 ± eps)``-correct
estimates precisely so queries can be answered at any instant
(Algorithms 1-3); this package is the read path built for that promise
at serving scale.  :class:`ModelSnapshot` is an immutable, versioned,
read-optimized view of the current estimates rebuilt only when the
:class:`~repro.monitoring.channel.MessageLog` sync epoch advances;
:class:`QueryServer` answers single, batched, and cached queries over
snapshots — bit-identical to the live estimator at every epoch — with a
Theorem-3 staleness bound governing how long cached classification
decisions stay servable; :class:`QueryWorkload` generates the seeded
query streams the ``serve_link`` benchmark workload and the tests replay.  See
``docs/serving.md``.
"""

from repro.serve.snapshot import ModelSnapshot
from repro.serve.server import QueryServer
from repro.serve.workload import QueryWorkload

__all__ = ["ModelSnapshot", "QueryServer", "QueryWorkload"]

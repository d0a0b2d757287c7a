"""Real multiprocess site/coordinator runtime.

The in-process :class:`~repro.api.session.MonitoringSession` remains the
reference implementation; :class:`DistributedSession` runs the site-side
encoding in spawn-safe worker processes and is contractually conformant
with it (same per-site message counts, same estimates, for any spec and
seeded stream — see ``docs/distributed.md``).
"""

from repro.dist.coordinator import DistributedSession
from repro.dist.messages import (
    IngestBatch,
    Shutdown,
    SiteAggregate,
    ValueReport,
)
from repro.dist.recovery import (
    CRASH_POINTS,
    DurableCoordinator,
    RecoveryError,
    RoundRecord,
    WalCorrupt,
    WriteAheadLog,
    load_recovery,
    run_crashing_coordinator,
)
from repro.dist.site import SiteShard
from repro.dist.transport import (
    FAULT_EXIT_CODE,
    TransportClosed,
    create_once,
)

__all__ = [
    "DistributedSession",
    "SiteShard",
    "TransportClosed",
    "create_once",
    "FAULT_EXIT_CODE",
    "IngestBatch",
    "SiteAggregate",
    "ValueReport",
    "Shutdown",
    "WriteAheadLog",
    "RoundRecord",
    "DurableCoordinator",
    "RecoveryError",
    "WalCorrupt",
    "CRASH_POINTS",
    "load_recovery",
    "run_crashing_coordinator",
]

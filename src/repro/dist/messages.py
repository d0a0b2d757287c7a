"""Wire frames exchanged by the multiprocess site/coordinator runtime.

The in-process path simulates the paper's protocol inside the counter
banks; the distributed runtime moves the *site-side work* (encoding a
sub-batch into per-site counter aggregates) into real worker processes
and ships the results back as frames over TCP (:mod:`repro.net`).  Two
message vocabularies coexist and must not be confused:

- **Protocol messages** (REPORT/BROADCAST/SYNC) are the paper's
  communication-complexity metric.  They are tallied by
  :class:`~repro.monitoring.channel.MessageLog` when the coordinator
  applies a round to the counter bank — exactly as in-process — so the
  distributed runtime reproduces the in-process tallies bit for bit.
- **Wire frames** (this module) are what actually crosses process
  boundaries.  Frames batch aggressively: one :class:`ValueReport`
  carries *every* hosted site's aggregate for one round, so the wire
  frame count is far below the protocol message count (the batching the
  paper assumes when it counts one counter update as one message).

Every frame is a plain ``__slots__`` class, picklable by reference from
spawn-started workers.  ``docs/distributed.md`` documents the format.

:class:`ValueReport` frames double as the coordinator's durability unit:
the write-ahead round log (:mod:`repro.dist.recovery`) persists each
applied round as its reports' wire encodings, so crash recovery replays
exactly the frames the banks originally consumed (``docs/recovery.md``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IngestBatch",
    "SiteAggregate",
    "ValueReport",
    "Shutdown",
]


class IngestBatch:
    """Coordinator -> site worker: one round's sub-batch of events.

    ``data`` is ``(m_w, n)`` state indices — any integer dtype; the
    coordinator ships the narrowest unsigned one that holds the
    network's largest state index — and ``site_ids`` the matching
    global site assignment, restricted to the worker's hosted sites.
    ``seq`` numbers the coordinator round the sub-batch belongs to;
    workers echo it back so out-of-order replies re-align.
    """

    __slots__ = ("seq", "data", "site_ids")

    def __init__(self, seq: int, data: np.ndarray, site_ids: np.ndarray) -> None:
        self.seq = int(seq)
        self.data = data
        self.site_ids = site_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IngestBatch(seq={self.seq}, m={self.data.shape[0]})"


class SiteAggregate:
    """One site's aggregated counter increments for one round.

    ``counter_ids`` are unique and ascending, ``counts`` strictly
    positive — the exact slice shape
    :meth:`~repro.counters.base.CounterBank.bulk_add_sites` consumes, so
    the coordinator applies a report without re-aggregating.  The
    contract is on values, not dtype: shards ship the narrowest unsigned
    dtypes that hold ``n_counters - 1`` and the sub-batch's row count,
    and consumers normalise to int64.
    """

    __slots__ = ("site", "counter_ids", "counts", "n_events")

    def __init__(self, site: int, counter_ids: np.ndarray,
                 counts: np.ndarray, n_events: int) -> None:
        self.site = int(site)
        self.counter_ids = counter_ids
        self.counts = counts
        self.n_events = int(n_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SiteAggregate(site={self.site}, "
            f"touched={self.counter_ids.size}, events={self.n_events})"
        )


class ValueReport:
    """Site worker -> coordinator: all hosted sites' aggregates for a round.

    ``aggregates`` is ordered by ascending site id and omits hosted
    sites with no events in the round.  ``state`` is the worker's
    current :meth:`~repro.dist.site.SiteShard.state_dict` — the
    coordinator keeps the most recent one per worker and hands it back
    on respawn, so a killed worker resumes from its last report.
    """

    __slots__ = ("worker", "seq", "aggregates", "state")

    def __init__(self, worker: int, seq: int,
                 aggregates: list, state: dict) -> None:
        self.worker = int(worker)
        self.seq = int(seq)
        self.aggregates = aggregates
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueReport(worker={self.worker}, seq={self.seq}, "
            f"sites={[a.site for a in self.aggregates]})"
        )


class Shutdown:
    """Coordinator -> site worker: drain and exit cleanly."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Shutdown()"

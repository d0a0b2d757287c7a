"""The site worker: a worker process hosting a shard of sites.

Each worker owns a contiguous shard of the ``k`` sites and performs the
genuinely site-local part of Algorithm 2: encoding its sub-batch of
events into per-site aggregated ``(counter_id, count)`` increments.  It
counts through the same
:meth:`~repro.core.estimator.StreamingMLEEstimator.count_table` the
in-process session applies to its bank, over a table holding the hosted
sites' rows only, and ships each row's non-zero entries.  Those are the
sorted-unique per-site slices the in-process bank consumes from the
same table, which is what makes the coordinator's conformance contract
(`docs/distributed.md`) hold by construction.

A worker dials the coordinator once and keeps that one TCP connection:
:class:`~repro.dist.messages.IngestBatch` and ``Shutdown`` frames
arrive on it, :class:`~repro.dist.messages.ValueReport` frames leave on
it.  Nothing else needs to cross: the protocol's thresholds and counter
rounds live in the coordinator's bank, so a worker holds no protocol
state to keep in sync.

The worker entry point follows the patterns of
``exec/multiprocess.py``: a top-level function rebuilding everything
from a picklable payload, started from
:func:`~repro.utils.procs.worker_context` so no coordinator state is
inherited.
"""

from __future__ import annotations

import numpy as np

from repro.api.spec import EstimatorSpec
from repro.core.estimator import StreamingMLEEstimator
from repro.counters.exact import ExactCounterBank
from repro.dist.messages import (
    IngestBatch,
    Shutdown,
    SiteAggregate,
    ValueReport,
)
from repro.dist.transport import TransportClosed


class SiteShard:
    """Site-local state of one worker: encoder plus resume counters.

    Parameters
    ----------
    spec:
        The session's estimator spec (only the network layout and site
        count matter for encoding; the protocol stays coordinator-side).
    sites:
        Ascending global site ids hosted by this worker.
    network:
        Skip the spec's repository lookup when already resolved.
    """

    def __init__(self, spec: EstimatorSpec, sites, *, network=None) -> None:
        self.spec = spec
        self.sites = tuple(int(s) for s in sites)
        net = network if network is not None else spec.resolve_network()
        # The bank only sizes the count table: one row per site from the
        # first hosted site to the last, which for the coordinator's
        # contiguous shards is one row per hosted site.  The protocol
        # runs coordinator-side, so nothing is ever applied to it.
        span = self.sites[-1] - self.sites[0] + 1
        self.estimator = StreamingMLEEstimator(
            net, lambda n: ExactCounterBank(n, span), name="site-shard",
        )
        self._id_dtype = np.min_scalar_type(self.estimator.n_counters - 1)
        #: Stream position of this shard (events encoded so far).
        self.events_seen = 0
        #: Next coordinator round this shard expects to encode.
        self.next_seq = 1

    # ------------------------------------------------------------------
    def encode(self, seq: int, data: np.ndarray,
               site_ids: np.ndarray) -> list[SiteAggregate]:
        """Aggregate one round's sub-batch into per-site reports.

        Returns one :class:`SiteAggregate` per hosted site with events,
        ascending by site id.  Batches arrive pre-validated from the
        coordinator in the session's narrow wire dtype, which the
        encoder's workspace copy reads as is.  Row ``site - sites[0]``
        of the count table is the site's aggregate; its non-zero ids
        and counts are copied out in the narrowest unsigned dtypes that
        hold their bounds, since these copies are what the report frame
        (and the WAL record) carries: ids are below ``n_counters``, and
        a counter gains at most one increment per event, so counts fit
        the sub-batch's row count.
        """
        aggregates: list[SiteAggregate] = []
        rows = int(data.shape[0])
        if rows:
            first = self.sites[0]
            local = np.asarray(site_ids, dtype=np.int64) - first
            table = self.estimator.count_table(data, local)
            count_dtype = np.min_scalar_type(rows)
            events = np.bincount(local, minlength=self.estimator.n_sites)
            for row in np.flatnonzero(events):
                counts = table[row]
                ids = np.flatnonzero(counts)
                aggregates.append(SiteAggregate(
                    first + int(row), ids.astype(self._id_dtype),
                    counts[ids].astype(count_dtype), int(events[row]),
                ))
        self.events_seen += rows
        self.next_seq = int(seq) + 1
        return aggregates

    # ------------------------------------------------------------------
    # Resume protocol (the PR-3 state_dict convention): everything a
    # respawned worker needs to continue where the dead one stopped.
    # The coordinator stores the state carried on each ValueReport and
    # hands the most recent one to the replacement process.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "kind": "site-shard",
            "sites": list(self.sites),
            "events_seen": int(self.events_seen),
            "next_seq": int(self.next_seq),
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "site-shard":
            raise ValueError(
                f"snapshot holds a {state.get('kind')!r} state, cannot "
                "restore into a site shard"
            )
        if tuple(state.get("sites", ())) != self.sites:
            raise ValueError(
                f"snapshot hosts sites {state.get('sites')}, shard hosts "
                f"{list(self.sites)}"
            )
        self.events_seen = int(state["events_seen"])
        self.next_seq = int(state["next_seq"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SiteShard(sites={list(self.sites)}, "
            f"events={self.events_seen}, next_seq={self.next_seq})"
        )


def _site_worker_main(payload: dict) -> None:
    """Worker entry point: encode batches until told to shut down.

    ``payload`` carries only picklable values: the spec as a dict, the
    hosted site ids, a ``net`` dict with the coordinator's listener
    address, session token, this incarnation number and the wire knobs
    (the worker dials it once; the one connection carries batches in
    and reports out), an optional resume ``state`` (from the previous
    incarnation's last report), the liveness ``poll_interval``, and an
    optional declarative ``fault`` spec installed on the transport by
    the fault-injection tests.
    """
    import multiprocessing

    from repro.net.transport import SocketTransport
    from repro.net.wire import MAX_FRAME_BYTES

    spec = EstimatorSpec.from_dict(payload["spec"])
    shard = SiteShard(spec, payload["sites"])
    if payload.get("state") is not None:
        shard.load_state_dict(payload["state"])
    worker = int(payload["worker"])
    parent = multiprocessing.parent_process()
    parent_alive = parent.is_alive if parent is not None else (lambda: True)
    net = payload["net"]
    conn = SocketTransport(
        net["address"], worker=worker,
        incarnation=net["incarnation"],
        token=net["token"],
        coordinator=net.get("coordinator", 0),
        max_frame_bytes=net.get("max_frame_bytes") or MAX_FRAME_BYTES,
        heartbeat_timeout=net.get("heartbeat_timeout"),
        poll_interval=payload.get("poll_interval"),
        fault=payload.get("fault"),
    )
    try:
        while True:
            frame = conn.recv(alive=parent_alive)
            if isinstance(frame, Shutdown):
                return
            if not isinstance(frame, IngestBatch):  # pragma: no cover
                raise RuntimeError(
                    f"site worker got unknown frame {frame!r}"
                )
            aggregates = shard.encode(frame.seq, frame.data, frame.site_ids)
            # A blocked send keeps reading the socket, so the
            # coordinator's own blocked send of the next batch drains.
            conn.send(
                ValueReport(worker, frame.seq, aggregates, shard.state_dict()),
                alive=parent_alive,
            )
    except TransportClosed:  # pragma: no cover - parent/listener died
        return
    finally:
        # The send above blocks until the kernel accepted every byte,
        # so closing here never truncates a reported frame.
        conn.close()

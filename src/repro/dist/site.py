"""The site worker: spawn-safe process hosting a shard of sites.

Each worker owns a contiguous shard of the ``k`` sites and performs the
genuinely site-local part of Algorithm 2: encoding its sub-batch of
events into per-site aggregated ``(counter_id, count)`` increments.  The
encoding reuses the full :class:`~repro.core.estimator.StreamingMLEEstimator`
fast path (sparse encoder, derived parent histograms, argsort grouping)
by pointing it at a :class:`_CollectorBank` — a bank whose ``_apply_site``
hook records the per-site slices instead of simulating the protocol.
Because both grouping strategies hand banks identical sorted-unique
per-site slices in ascending site order, the aggregates a worker ships
are bit-identical to the slices the in-process path would have handed
the real bank — which is what makes the coordinator's conformance
contract (`docs/distributed.md`) hold by construction.

The worker entry point follows the spawn-safe patterns of
``exec/multiprocess.py``: a top-level function rebuilding everything
from a picklable payload, started with the ``spawn`` method so no
parent state is inherited.
"""

from __future__ import annotations

import numpy as np

from repro.api.spec import EstimatorSpec
from repro.core.estimator import StreamingMLEEstimator
from repro.counters.base import CounterBank
from repro.dist.messages import (
    IngestBatch,
    RoundSync,
    Shutdown,
    SiteAggregate,
    ThresholdUpdate,
    ValueReport,
)
from repro.dist.transport import QueueTransport, TransportClosed

#: Start method for site workers (same rationale as exec/multiprocess.py).
START_METHOD = "spawn"


class _CollectorBank(CounterBank):
    """A bank that records per-site slices instead of simulating anything.

    The estimator's grouping layer calls ``_apply_site`` once per
    non-silent site, ascending, with the site's sorted-unique aggregate
    — exactly the payload a :class:`ValueReport` needs.  The arrays are
    estimator-owned workspace, so they are copied out here — into the
    narrowest unsigned dtypes that hold their bounds, since these copies
    are what the report frame (and the WAL record) carries: ids are
    below ``n_counters``, and a counter gains at most one increment per
    event, so counts fit the dtype the shard picks from the round's
    row count.
    """

    def __init__(self, n_counters: int, n_sites: int) -> None:
        super().__init__(n_counters, n_sites)
        self.collected: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._id_dtype = np.min_scalar_type(n_counters - 1)
        #: Set per round by :meth:`SiteShard.encode` from the sub-batch's
        #: row count; int64 until then, so no caller can wrap a count.
        self.count_dtype = np.dtype(np.int64)

    def _apply_site(self, site, counter_ids, counts) -> None:
        self.collected.append(
            (int(site), np.array(counter_ids, dtype=self._id_dtype),
             np.array(counts, dtype=self.count_dtype))
        )

    def estimates(self) -> np.ndarray:  # pragma: no cover - never queried
        return np.zeros(self.n_counters, dtype=np.float64)

    def take(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        slices, self.collected = self.collected, []
        return slices


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
        self._collector_holder: list[_CollectorBank] = []

        def factory(n_counters: int) -> _CollectorBank:
            bank = _CollectorBank(n_counters, spec.n_sites)
            self._collector_holder.append(bank)
            return bank

        self.estimator = StreamingMLEEstimator(net, factory, name="site-shard")
        self.collector = self._collector_holder[0]
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
        coordinator, so the estimator's range scans are skipped; they
        arrive in the session's narrow wire dtype, and the estimator's
        int64 normalisation is the upcast.
        """
        aggregates: list[SiteAggregate] = []
        if data.shape[0]:
            self.collector.count_dtype = np.min_scalar_type(data.shape[0])
            # The argsort strategy keeps worker memory at O(touched)
            # instead of the dense path's O(k * n_counters) table.
            self.estimator.update_batch(
                data, site_ids, strategy="argsort", validate=False
            )
            counts_per_site = np.bincount(
                site_ids, minlength=self.spec.n_sites
            )
            for site, counter_ids, counts in self.collector.take():
                aggregates.append(
                    SiteAggregate(
                        site, counter_ids, counts,
                        int(counts_per_site[site]),
                    )
                )
        self.events_seen += int(data.shape[0])
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
    hosted site ids, the channel ends — both queue ends, or (under the
    TCP transport) a ``net`` dict with the coordinator's listener
    address, session token, and this incarnation number — an optional
    resume ``state`` (from the previous incarnation's last report) and
    an optional declarative ``fault`` spec wrapped around the report
    transport by the fault-injection tests.
    """
    import multiprocessing

    spec = EstimatorSpec.from_dict(payload["spec"])
    shard = SiteShard(spec, payload["sites"])
    if payload.get("state") is not None:
        shard.load_state_dict(payload["state"])
    worker = int(payload["worker"])
    parent = multiprocessing.parent_process()
    parent_alive = parent.is_alive if parent is not None else (lambda: True)
    net = payload.get("net")
    if net is not None:
        from repro.net.transport import SocketTransport
        from repro.net.wire import MAX_FRAME_BYTES

        socket_kwargs = {
            "incarnation": net["incarnation"],
            "token": net["token"],
            "coordinator": net.get("coordinator", 0),
            "max_frame_bytes": net.get("max_frame_bytes") or MAX_FRAME_BYTES,
            "heartbeat_timeout": net.get("heartbeat_timeout"),
            "poll_interval": payload.get("poll_interval"),
        }
        inbox = SocketTransport(
            net["address"], worker=worker, channel="inbox",
            name=f"worker-{worker}.inbox",
            fault=payload.get("inbox_fault"),
            **socket_kwargs,
        )
        reports = SocketTransport(
            net["address"], worker=worker, channel="reports",
            name=f"worker-{worker}.reports",
            fault=payload.get("fault"),
            **socket_kwargs,
        )
    else:
        inbox = QueueTransport(
            payload["inbox"], name=f"worker-{worker}.inbox",
            fault=payload.get("inbox_fault"),
            poll_interval=payload.get("poll_interval"),
        )
        reports = QueueTransport(
            payload["reports"], name=f"worker-{worker}.reports",
            fault=payload.get("fault"),
            poll_interval=payload.get("poll_interval"),
        )
    acked = 0
    try:
        while True:
            frame = inbox.recv(alive=parent_alive)
            if isinstance(frame, Shutdown):
                return
            if isinstance(frame, IngestBatch):
                aggregates = shard.encode(
                    frame.seq, frame.data, frame.site_ids
                )
                reports.send(
                    ValueReport(
                        worker, frame.seq, aggregates, shard.state_dict()
                    ),
                    alive=parent_alive,
                )
            elif isinstance(frame, ThresholdUpdate):
                # The protocol's threshold/round state lives in the
                # coordinator's bank; the ack closes the round-sync loop
                # so fan-out is observable on the wire.
                acked += 1
                reports.send(RoundSync(worker, acked), alive=parent_alive)
            else:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"site worker got unknown frame {frame!r}"
                )
    except TransportClosed:  # pragma: no cover - parent/listener died
        return
    finally:
        if net is not None:
            # Both sends above block until the kernel accepted every
            # byte, so closing here never truncates a reported frame.
            reports.close()
            inbox.close()

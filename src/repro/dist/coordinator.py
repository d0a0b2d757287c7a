"""The coordinator event loop and :class:`DistributedSession`.

:class:`DistributedSession` mirrors
:class:`~repro.api.session.MonitoringSession`'s ingest/query/snapshot
API while running the site-side half of Algorithm 2 in real spawn-safe
worker processes (:mod:`repro.dist.site`).  Per ingest round it

1. assigns sites from the session partitioner (the same stream the
   in-process path consumes),
2. splits the batch across workers by hosted-site shard and ships one
   :class:`~repro.dist.messages.IngestBatch` frame per worker over a
   bounded inbox queue (full queue = backpressure: ingest stalls
   instead of buffering unboundedly),
3. drains :class:`~repro.dist.messages.ValueReport` frames, re-aligns
   them by round, and applies each round's per-site aggregates to the
   inner session's counter bank **in ascending site order** — the exact
   call sequence (`bulk_add_site` per non-silent site) the in-process
   grouped paths produce, so the bank state, message-log tallies, and
   RNG consumption are bit-identical to the in-process channel,
4. fans out a :class:`~repro.dist.messages.ThresholdUpdate` to every
   worker whenever the apply started new counter rounds (the
   coordinator's round-sync broadcast), collecting the workers'
   :class:`~repro.dist.messages.RoundSync` acks.

**Conformance contract** (pinned by ``tests/test_dist.py``): for any
``EstimatorSpec`` and seeded stream, a ``DistributedSession`` fed the
same batches as a ``MonitoringSession`` finishes with identical per-site
message counts, identical message-kind tallies, and identical estimates
— including runs where a site worker is SIGKILLed mid-round, because a
replacement is respawned from the dead worker's last reported
``state_dict`` and unreported sub-batches are replayed (reports are
deduplicated per round, and aggregates are pure functions of the
sub-batch, so a replayed round applies bit-identically).

``docs/distributed.md`` walks through the design, the wire format, and
the contract's proof obligations.  With ``wal_dir`` set the coordinator
is additionally *durable* — rounds are write-ahead logged before they
touch the banks and checkpointed periodically, and
``DistributedSession(recover_from=dir)`` restarts a crashed coordinator
byte-identically (:mod:`repro.dist.recovery`, ``docs/recovery.md``).
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable
from multiprocessing.connection import wait as _wait_connections

import numpy as np

from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.dist.messages import (
    IngestBatch,
    RoundSync,
    Shutdown,
    ThresholdUpdate,
    ValueReport,
)
from repro.dist.site import START_METHOD, _site_worker_main
from repro.dist.transport import POLL_INTERVAL, QueueTransport, TransportClosed
from repro.errors import ExecutionError, SessionError, StreamError
from repro.monitoring.channel import MessageKind


def event_wire_dtype(network) -> np.dtype:
    """The dtype event batches travel in for ``network``.

    The narrowest unsigned integer holding every valid state index
    (``max(cardinalities) - 1``): uint8 on LINK and ALARM.  The wire
    codec carries whatever dtype it is given (``docs/networking.md``),
    so the producer picks the width; workers upcast on arrival.
    """
    return np.min_scalar_type(int(network.cardinalities().max()) - 1)


class _WorkerHandle:
    """Driver-side record of one site worker process."""

    __slots__ = (
        "index", "sites", "process", "inbox", "reports", "state",
        "unreported", "thresholds_sent", "thresholds_acked", "respawns",
    )

    def __init__(self, index: int, sites: tuple[int, ...]) -> None:
        self.index = index
        self.sites = sites
        self.process = None
        self.inbox: QueueTransport | None = None
        #: This incarnation's report queue.  Per-worker (never shared):
        #: an abrupt death can corrupt the queue its feeder thread was
        #: writing — a fresh incarnation gets a fresh queue and the old
        #: one is discarded, so a dying worker can never wedge the pipe
        #: a *surviving* worker sends on.
        self.reports: QueueTransport | None = None
        #: Last state_dict the worker reported (respawn hand-off).
        self.state: dict | None = None
        #: seq -> (data, site_ids) sub-batches sent but not yet reported
        #: by this worker (``data`` in the session's wire dtype);
        #: replayed verbatim after a respawn.
        self.unreported: dict[int, tuple] = {}
        self.thresholds_sent = 0
        self.thresholds_acked = 0
        self.respawns = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class DistributedSession:
    """A monitoring session whose sites are real worker processes.

    Parameters
    ----------
    spec:
        The declarative run description (must carry a serializable seed;
        worker processes rebuild their encoders from ``spec.to_dict()``).
    network:
        Skip the spec's repository lookup when already resolved.
    procs:
        Worker process count ``N``; the ``k`` sites are multiplexed over
        contiguous shards of ``ceil(k / N)``-ish sites.  Defaults to
        ``min(k, os.cpu_count())``.
    max_pending:
        Rounds allowed in flight after :meth:`ingest` returns.  The
        default 1 is fully synchronous (every batch is applied before
        ingest returns, like the in-process session); higher values
        pipeline encoding of round ``s+1`` against application of round
        ``s`` — reads (:meth:`metrics`, queries, snapshots) flush first,
        so anytime semantics are preserved.
    inbox_slots / report_slots:
        Bounds of the per-worker inbox and report queues — the
        backpressure windows.
    max_respawns:
        Worker deaths tolerated per worker slot before the session gives
        up with :class:`~repro.errors.ExecutionError`.
    transport:
        ``"queue"`` (the default, in-host ``multiprocessing`` queues) or
        ``"tcp"`` — the :mod:`repro.net` socket transport: workers dial
        a loopback listener and speak the framed wire protocol, with
        identical conformance guarantees (see ``docs/networking.md``).
    poll_interval:
        Liveness-poll cadence threaded into every transport end
        (defaults to :data:`~repro.dist.transport.POLL_INTERVAL`).
    worker_faults / worker_inbox_faults:
        Test hooks: declarative fault specs (see
        :mod:`repro.dist.transport` and :mod:`repro.net.transport`)
        installed on a worker's report / inbox transport, keyed by
        worker index.
    coordinator_faults:
        TCP-only test hook: fault specs installed listener-side on a
        worker's *reports* channel (see :mod:`repro.net.endpoint`),
        keyed by worker index.
    wal_dir:
        Directory for coordinator durability (``docs/recovery.md``): a
        write-ahead round log, periodic crash-atomic checkpoints, and a
        ``coordinator.json`` state file live there.  A fresh session
        takes ownership of the directory (stale artifacts of a prior
        run are cleared).
    wal_fsync / wal_fsync_interval:
        WAL fsync policy — ``"always"`` (per append), ``"interval"``
        (every ``wal_fsync_interval`` appends), or ``"off"``.
        Coordinator-*process* crashes are recoverable under all three;
        fsync extends the guarantee to host/power failure.
    checkpoint_rounds:
        Checkpoint (and truncate the WAL) every N applied rounds;
        ``None`` checkpoints only on :meth:`close` (and on recovery).
    recover_from:
        Restart path: rebuild the coordinator from this recovery
        directory — last committed checkpoint plus WAL replay — with a
        bumped coordinator incarnation and fresh workers.  ``spec`` is
        taken from the directory and must not be passed.
    wal_crash:
        Chaos-harness hook: a ``{"seq": N, "point": ...}`` spec that
        hard-kills the coordinator at a seeded injection point (see
        :data:`~repro.dist.recovery.CRASH_POINTS`).
    bind_address / advertise_address:
        TCP only: the interface the listener binds (default loopback;
        ``"0.0.0.0"`` for all interfaces) and, when binding a wildcard,
        the address workers are told to dial.
    max_frame_bytes:
        TCP only: per-frame payload ceiling for both directions
        (default :data:`repro.net.wire.MAX_FRAME_BYTES`).
    heartbeat_timeout:
        TCP only: worker-side dead-peer threshold in seconds (no frame
        nor heartbeat for this long drops the connection; default off).
    """

    def __init__(
        self,
        spec: EstimatorSpec | None = None,
        *,
        network=None,
        procs: int | None = None,
        max_pending: int = 1,
        inbox_slots: int | None = None,
        report_slots: int | None = None,
        max_respawns: int = 5,
        transport: str = "queue",
        poll_interval: float | None = None,
        worker_faults: dict | None = None,
        worker_inbox_faults: dict | None = None,
        coordinator_faults: dict | None = None,
        wal_dir=None,
        wal_fsync: str = "always",
        wal_fsync_interval: int = 8,
        checkpoint_rounds: int | None = None,
        recover_from=None,
        wal_crash: dict | None = None,
        bind_address: str | None = None,
        advertise_address: str | None = None,
        max_frame_bytes: int | None = None,
        heartbeat_timeout: float | None = None,
        _inner: MonitoringSession | None = None,
    ) -> None:
        self._durable = None
        #: JSON-ready summary of the last recovery (None on fresh runs).
        self.recovery_info = None
        self._incarnation = 0
        if recover_from is not None:
            if spec is not None or _inner is not None:
                raise SessionError(
                    "recover_from rebuilds the spec and state from the "
                    "recovery directory; pass neither spec nor _inner"
                )
            from repro.dist.recovery import load_recovery

            _inner, self._incarnation, self.recovery_info = load_recovery(
                recover_from, network=network
            )
            spec = _inner.spec
            wal_dir = recover_from
        elif spec is None:
            raise SessionError(
                "spec is required unless recover_from is given"
            )
        if isinstance(spec.seed, np.random.Generator):
            raise SessionError(
                "DistributedSession ships its spec to worker processes and "
                "needs a serializable (int or None) seed, not a Generator"
            )
        self.inner = _inner if _inner is not None else MonitoringSession(
            spec, network=network
        )
        self._wire_dtype = event_wire_dtype(self.inner.network)
        k = spec.n_sites
        if procs is None:
            procs = min(k, os.cpu_count() or 1)
        procs = int(procs)
        if procs < 1:
            raise SessionError(f"procs must be positive, got {procs}")
        self.procs = min(procs, k)
        self.max_pending = max(1, int(max_pending))
        self._inbox_slots = int(
            inbox_slots if inbox_slots is not None else self.max_pending + 2
        )
        self._report_slots = int(
            report_slots if report_slots is not None
            else 4 * self.max_pending + 4
        )
        self.max_respawns = int(max_respawns)
        if transport not in ("queue", "tcp"):
            raise SessionError(
                f"transport must be 'queue' or 'tcp', got {transport!r}"
            )
        self.transport = transport
        self._poll_interval = (
            None if poll_interval is None else float(poll_interval)
        )
        self._worker_faults = dict(worker_faults or {})
        self._worker_inbox_faults = dict(worker_inbox_faults or {})
        self._coordinator_faults = dict(coordinator_faults or {})
        self._max_frame_bytes = (
            None if max_frame_bytes is None else int(max_frame_bytes)
        )
        if self._max_frame_bytes is not None and self._max_frame_bytes < 1:
            raise SessionError(
                f"max_frame_bytes must be positive, got {max_frame_bytes}"
            )
        self._heartbeat_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )
        if self._heartbeat_timeout is not None and self._heartbeat_timeout <= 0:
            raise SessionError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        if self.transport != "tcp":
            for name, value in (
                ("bind_address", bind_address),
                ("advertise_address", advertise_address),
                ("max_frame_bytes", max_frame_bytes),
                ("heartbeat_timeout", heartbeat_timeout),
            ):
                if value is not None:
                    raise SessionError(
                        f"{name} only applies to the tcp transport"
                    )
        self._listener = None
        self._replaying = False
        if self.transport == "tcp":
            from repro.net.endpoint import Listener

            listener_kwargs = {
                "advertise": advertise_address,
                "incarnation": self._incarnation,
                "poll_interval": self._poll_interval,
            }
            if bind_address is not None:
                listener_kwargs["host"] = bind_address
            if self._max_frame_bytes is not None:
                listener_kwargs["max_frame_bytes"] = self._max_frame_bytes
            self._listener = Listener(**listener_kwargs)

        if wal_dir is not None:
            from repro.dist.recovery import DurableCoordinator

            self._durable = DurableCoordinator(
                wal_dir, self.inner, fsync=wal_fsync,
                fsync_interval=wal_fsync_interval,
                checkpoint_rounds=checkpoint_rounds,
                crash=wal_crash, incarnation=self._incarnation,
                fresh=(recover_from is None),
            )
            if recover_from is not None:
                # Commit the recovery: bump the on-disk incarnation,
                # then fold the replayed WAL into a fresh checkpoint so
                # round numbering can restart at 1 and an immediate
                # re-crash recovers from here instead of replaying.
                self._durable._write_state()
                self._durable.checkpoint()
        elif wal_crash is not None:
            raise SessionError("wal_crash requires wal_dir")

        import multiprocessing

        self._ctx = multiprocessing.get_context(START_METHOD)
        #: Global site id -> worker index (contiguous shards).
        bounds = np.linspace(0, k, self.procs + 1).astype(np.int64)
        self._site_to_worker = np.repeat(
            np.arange(self.procs, dtype=np.int64), np.diff(bounds)
        )
        self._workers: list[_WorkerHandle] = []
        for w in range(self.procs):
            handle = _WorkerHandle(
                w, tuple(range(int(bounds[w]), int(bounds[w + 1])))
            )
            self._workers.append(handle)
            self._spawn(handle)

        #: Round bookkeeping: seq of the last round shipped / applied.
        self._seq = 0
        self._applied_seq = 0
        #: seq -> in-flight round: batch size, expected worker set,
        #: received {worker: aggregates}, and the ship timestamp.
        self._rounds: dict[int, dict] = {}
        self._closed = False
        #: Wire accounting (frames, not protocol messages).
        self._wire = {
            "batch_frames_sent": 0,
            "report_frames_received": 0,
            "threshold_frames_sent": 0,
            "sync_frames_received": 0,
            "duplicate_report_frames": 0,
            "replayed_rounds": 0,
            "worker_respawns": 0,
            "rounds_applied": 0,
            "round_latency_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _payload(self, handle: _WorkerHandle) -> dict:
        payload = {
            "worker": handle.index,
            "spec": self.inner.spec.to_dict(),
            "sites": list(handle.sites),
            "state": handle.state,
            "fault": self._worker_faults.get(handle.index),
            "inbox_fault": self._worker_inbox_faults.get(handle.index),
            "poll_interval": self._poll_interval,
        }
        if self.transport == "tcp":
            # Socket workers carry no queue ends — they dial the
            # listener and authenticate as this exact incarnation (of
            # this exact coordinator incarnation: a worker spawned by a
            # crashed coordinator life is refused by its successor).
            payload["net"] = {
                "address": self._listener.address,
                "token": self._listener.token,
                "incarnation": handle.respawns,
                "coordinator": self._incarnation,
                "max_frame_bytes": self._max_frame_bytes,
                "heartbeat_timeout": self._heartbeat_timeout,
            }
        else:
            payload["inbox"] = handle.inbox.queue
            payload["reports"] = handle.reports.queue
        return payload

    def _spawn(self, handle: _WorkerHandle) -> None:
        if self.transport == "tcp":
            # Fresh channels per incarnation, exactly like the fresh
            # queues below: the listener now refuses every Hello except
            # this incarnation's, so a SIGKILLed predecessor's lingering
            # socket can neither wedge nor impersonate the replacement.
            handle.inbox = self._listener.open_channel(
                handle.index, "inbox", handle.respawns,
            )
            handle.reports = self._listener.open_channel(
                handle.index, "reports", handle.respawns,
                fault=self._coordinator_faults.get(handle.index),
            )
        else:
            handle.inbox = QueueTransport(
                self._ctx.Queue(self._inbox_slots),
                name=f"worker-{handle.index}.inbox",
                poll_interval=self._poll_interval,
            )
            handle.reports = QueueTransport(
                self._ctx.Queue(self._report_slots),
                name=f"worker-{handle.index}.reports",
                poll_interval=self._poll_interval,
            )
        handle.thresholds_sent = 0
        handle.thresholds_acked = 0
        handle.process = self._ctx.Process(
            target=_site_worker_main, args=(self._payload(handle),),
            daemon=True,
        )
        handle.process.start()

    def _revive(self, handle: _WorkerHandle) -> None:
        """Respawn a dead worker from its last reported state and replay.

        The replacement resumes via the PR-3 ``state_dict`` hand-off
        (:meth:`~repro.dist.site.SiteShard.load_state_dict`); sub-batches
        the dead incarnation never reported are re-shipped in round
        order.  A report that *did* reach the queue before the death is
        deduplicated at dispatch, so the contract survives the race.
        """
        handle.process.join(timeout=1.0)
        handle.respawns += 1
        self._wire["worker_respawns"] += 1
        if handle.respawns > self.max_respawns:
            raise ExecutionError(
                f"site worker {handle.index} died {handle.respawns} times "
                f"(last exit code {handle.process.exitcode}); giving up"
            )
        # A fresh inbox: frames the dead worker never drained are covered
        # by the unreported replay below, and a stale queue must not leak
        # them to the replacement twice.  The abandoned queue's feeder
        # thread may be wedged mid-frame on a pipe nobody will ever read
        # again — without the cancel its atexit finalizer joins that
        # thread forever and the whole process hangs at shutdown.
        if self.transport != "tcp":
            for old in (handle.inbox, handle.reports):
                if old is not None:
                    old.queue.cancel_join_thread()
                    old.queue.close()
        self._spawn(handle)
        for seq in sorted(handle.unreported):
            data, site_ids = handle.unreported[seq]
            self._send(handle, IngestBatch(seq, data, site_ids))

    def _send(self, handle: _WorkerHandle, frame) -> None:
        """Ship one frame, draining reports while blocked (deadlock-free).

        The inbox bound is the backpressure window: when the worker is
        busy (or slow), the send blocks.  Reports are drained during the
        wait so a worker blocked on the (also bounded) report queue can
        always make progress, and worker death during the wait triggers
        revive-and-retry.
        """
        while True:
            if not handle.alive():
                self._revive(handle)
            try:
                handle.inbox.send(frame, alive=handle.alive, timeout=0.25)
                return
            except TransportClosed:
                self._dispatch_available()

    # ------------------------------------------------------------------
    # Report dispatch and round application
    # ------------------------------------------------------------------
    def _dispatch(self, frame) -> None:
        if isinstance(frame, ValueReport):
            self._wire["report_frames_received"] += 1
            handle = self._workers[frame.worker]
            handle.state = frame.state
            handle.unreported.pop(frame.seq, None)
            record = self._rounds.get(frame.seq)
            if record is None or frame.worker in record["got"]:
                # A replayed round whose original report raced the death
                # detection (or arrived after the round was applied).
                self._wire["duplicate_report_frames"] += 1
                return
            if frame.worker in record["expected"]:
                record["got"][frame.worker] = frame.aggregates
        elif isinstance(frame, RoundSync):
            self._wire["sync_frames_received"] += 1
            self._workers[frame.worker].thresholds_acked += 1
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"coordinator got unknown frame {frame!r}")

    def _recv_report(self, handle: _WorkerHandle):
        """Non-blocking receive from one worker's report queue.

        A worker killed mid-send (``SIGKILL``, injected ``os._exit``)
        can leave a half-written frame at the tail of its queue; the
        resulting unpickling/EOF error is confined to the dead
        incarnation's private queue, so it is dropped here — the queue
        is abandoned and the revive path replays whatever it carried.
        An error on a *live* worker's queue is a real bug and re-raised.
        """
        if handle.reports is None:
            return None
        try:
            return handle.reports.try_recv()
        except Exception:
            if handle.alive():
                raise
            handle.reports = None
            return None

    def _maybe_replay(self) -> None:
        """Replay unreported rounds of workers whose connection broke.

        TCP only: frames that were in flight on a severed/replaced
        connection are gone; the worker itself is (usually) still
        alive, so the revive-replay path never fires.  Re-shipping the
        worker's unreported sub-batches closes the gap — re-encoded
        aggregates are pure functions of the sub-batch and reports are
        deduplicated per round, so a replay that races the original
        report applies exactly once either way.
        """
        if self._listener is None or self._replaying:
            return
        disrupted = self._listener.take_disrupted()
        if not disrupted:
            return
        self._replaying = True
        try:
            for w in sorted(disrupted):
                handle = self._workers[w]
                if not handle.alive():
                    continue  # the revive path owns dead-worker replay
                for seq in sorted(handle.unreported):
                    data, site_ids = handle.unreported[seq]
                    self._send(handle, IngestBatch(seq, data, site_ids))
                    self._wire["replayed_rounds"] += 1
        finally:
            self._replaying = False

    def _dispatch_available(self) -> bool:
        """Drain everything currently queued without blocking."""
        got_any = False
        while True:
            progressed = False
            if self._listener is not None:
                self._listener.pump(0.0)
                self._maybe_replay()
            for handle in self._workers:
                frame = self._recv_report(handle)
                if frame is not None:
                    self._dispatch(frame)
                    progressed = got_any = True
            if not progressed:
                return got_any

    def _wait_reports(self, timeout: float = 0.25) -> None:
        """Sleep until a report may be ready or a worker dies.

        Blocks on the report channels' read ends — queue-feeder pipes
        or, under TCP, the listener and every live connection socket
        (``multiprocessing.connection.wait`` accepts anything with a
        ``fileno``) — and the worker process sentinels together, so
        frame arrival, a (re)connect, and worker death all wake the
        event loop immediately instead of on a poll tick.
        """
        waitables = []
        if self._listener is not None:
            waitables.extend(self._listener.waitables())
        for handle in self._workers:
            if self._listener is None and handle.reports is not None:
                waitables.append(handle.reports.queue._reader)
            if handle.alive():
                waitables.append(handle.process.sentinel)
        if waitables:
            _wait_connections(waitables, timeout=timeout)
        else:  # pragma: no cover - every worker gone and abandoned
            time.sleep(self._poll_interval or POLL_INTERVAL)

    def _drain_blocking(self) -> None:
        """Wait for at least one frame, reviving dead workers meanwhile."""
        while True:
            if self._dispatch_available():
                return
            for handle in self._workers:
                if handle.unreported and not handle.alive():
                    self._revive(handle)
            self._wait_reports()

    def _apply_ready(self) -> None:
        """Apply complete rounds, in round order, sites ascending.

        This is the conformance-critical step: workers host contiguous
        ascending site shards and report each shard's aggregates in
        ascending site order, so walking workers by index yields the
        global ascending site walk — the identical ``_apply_site`` call
        sequence (and therefore RNG consumption) the in-process grouped
        paths produce for the same batch.
        """
        bank = self.inner.estimator.bank
        log = self.inner.message_log
        while True:
            seq = self._applied_seq + 1
            record = self._rounds.get(seq)
            if record is None or len(record["got"]) < len(record["expected"]):
                return
            if self._durable is not None:
                # Write-ahead: the round is durable before any of it
                # touches the banks, so a crash between here and the
                # apply replays it instead of losing it.
                self._durable.log_round(seq, record)
            broadcasts_before = log.count(MessageKind.BROADCAST)
            for worker_index in sorted(record["got"]):
                for agg in record["got"][worker_index]:
                    bank.bulk_add_site(agg.site, agg.counter_ids, agg.counts)
            self.inner.estimator.events_seen += record["m"]
            self._applied_seq = seq
            del self._rounds[seq]
            self._wire["rounds_applied"] += 1
            self._wire["round_latency_seconds"] += (
                time.monotonic() - record["sent_at"]
            )
            if self._durable is not None:
                self._durable.after_apply(seq, record)
            started = log.count(MessageKind.BROADCAST) - broadcasts_before
            if started:
                # Round-sync fan-out: every worker learns that counter
                # rounds advanced (batched into one frame per worker).
                rounds = started // self.inner.spec.n_sites
                for handle in self._workers:
                    self._send(handle, ThresholdUpdate(seq, rounds))
                    handle.thresholds_sent += 1
                    self._wire["threshold_frames_sent"] += 1

    def _settle(self, allowed_pending: int) -> None:
        while self._seq - self._applied_seq > allowed_pending:
            self._dispatch_available()
            self._apply_ready()
            if self._seq - self._applied_seq > allowed_pending:
                self._drain_blocking()
                self._apply_ready()

    # ------------------------------------------------------------------
    # Ingestion (mirrors MonitoringSession)
    # ------------------------------------------------------------------
    def ingest(self, data, site_ids=None, *, validate: bool = True) -> int:
        """Feed a batch of events; returns the number of events ingested.

        Mirrors :meth:`MonitoringSession.ingest`: sites come from the
        session partitioner when ``site_ids`` is omitted, and the
        assignment stream is part of the snapshot state.  The per-site
        aggregation happens in the site workers.
        """
        if self._closed:
            raise SessionError("session is closed")
        data = np.asarray(data, dtype=np.int64)
        if data.ndim == 1:
            data = data.reshape(1, -1)
        if data.shape[0] == 0:
            return 0
        if not validate:
            # Nothing else scans a trusted batch, and narrowing it below
            # must be lossless or refused — never a silent wrap.  The
            # in-process session has no such refusal, so it comes before
            # the partitioner draw: a refused batch leaves the two
            # sessions' assignment streams aligned.
            limit = np.iinfo(self._wire_dtype).max
            if data.size and (data.min() < 0 or data.max() > limit):
                raise StreamError(
                    "event contains state indices outside the "
                    f"{self._wire_dtype.name} wire range [0, {limit}]"
                )
        if site_ids is None:
            site_ids = self.inner.partitioner.assign(data.shape[0])
        data, site_ids = self.inner.estimator._validate_batch(
            data, site_ids, check=validate
        )
        # One cast ahead of the per-worker split: the split copies, the
        # replay buffers, the frame CRCs and the socket all move the
        # narrow bytes (validate=True's range scan proved it lossless).
        data = data.astype(self._wire_dtype)
        m = int(data.shape[0])
        self._seq += 1
        seq = self._seq
        workers_of = self._site_to_worker[site_ids]
        expected = set()
        record = {
            "m": m, "expected": expected, "got": {},
            "sent_at": time.monotonic(),
        }
        if self._durable is not None:
            # Captured *at ingest*: with pipelining the live partitioner
            # advances past the round being applied, so the WAL record
            # (and through it the checkpoint) must carry the state as of
            # this round's assignment draw.
            record["partitioner"] = self.inner.partitioner.state_dict()
        self._rounds[seq] = record
        for w in np.unique(workers_of):
            w = int(w)
            mask = workers_of == w
            sub = (data[mask], site_ids[mask])
            expected.add(w)
            handle = self._workers[w]
            handle.unreported[seq] = sub
            self._send(handle, IngestBatch(seq, *sub))
            self._wire["batch_frames_sent"] += 1
        self._settle(self.max_pending - 1)
        return m

    def ingest_stream(self, batches: Iterable, *,
                      validate: bool = True) -> int:
        """Feed an iterable of batches (see :meth:`MonitoringSession.ingest_stream`)."""
        total = 0
        for item in batches:
            if isinstance(item, tuple) and len(item) == 2:
                data, site_ids = item
            else:
                data, site_ids = item, None
            total += self.ingest(data, site_ids, validate=validate)
        return total

    def ingest_sampler(self, sampler, m: int, *, chunk: int = 10_000) -> int:
        """Fused sampler ingest (see :meth:`MonitoringSession.ingest_sampler`).

        Sub-batches are pickled to workers, so the zero-copy buffer
        reuse of the in-process path does not apply; the sampler
        contract (trusted batches, session partitioner sites) does.
        """
        return self.ingest_stream(
            sampler.sample_stream(m, chunk=chunk, reuse_buffer=True),
            validate=False,
        )

    def sampler(self, **kwargs):
        """A ground-truth sampler over this session's network."""
        return self.inner.sampler(**kwargs)

    def flush(self) -> None:
        """Block until every in-flight round is applied."""
        self._settle(0)

    # ------------------------------------------------------------------
    # Anytime access (flush first: reads see every ingested batch)
    # ------------------------------------------------------------------
    @property
    def spec(self) -> EstimatorSpec:
        return self.inner.spec

    @property
    def network(self):
        return self.inner.network

    @property
    def partitioner(self):
        return self.inner.partitioner

    @property
    def message_log(self):
        self.flush()
        return self.inner.message_log

    @property
    def estimator(self):
        self.flush()
        return self.inner.estimator

    @property
    def events_seen(self) -> int:
        self.flush()
        return self.inner.events_seen

    @property
    def total_messages(self) -> int:
        self.flush()
        return self.inner.total_messages

    def query(self, assignment) -> float:
        self.flush()
        return self.inner.query(assignment)

    def log_query(self, assignment) -> float:
        self.flush()
        return self.inner.log_query(assignment)

    def query_event(self, event) -> float:
        self.flush()
        return self.inner.query_event(event)

    def log_query_batch(self, data, *, strict: bool = False) -> np.ndarray:
        self.flush()
        return self.inner.log_query_batch(data, strict=strict)

    def estimates(self) -> np.ndarray:
        self.flush()
        return self.inner.estimates()

    def classifier(self):
        self.flush()
        return self.inner.classifier()

    def serve(self, **kwargs):
        """A :class:`~repro.serve.QueryServer` over this coordinator.

        The server reads through this session's flushing ``estimator``
        and ``message_log`` properties, so every snapshot it builds
        reflects all applied rounds; see
        :meth:`repro.api.session.MonitoringSession.serve`.
        """
        from repro.serve import QueryServer

        return QueryServer(self, **kwargs)

    def estimated_network(self, *, name: str | None = None):
        self.flush()
        return self.inner.estimated_network(name=name)

    def metrics(self) -> dict:
        """Protocol metrics, identical in shape and value to the inner
        session's (wire-level accounting lives in :meth:`wire_stats`)."""
        self.flush()
        return self.inner.metrics()

    def wire_stats(self) -> dict:
        """Wire-frame accounting of the runtime itself (JSON-ready).

        Frames, not protocol messages: ``batch_frames_sent`` counts
        coordinator->worker sub-batches, ``report_frames_received`` the
        batched per-round replies, and so on.  ``blocked_sends`` /
        ``blocked_seconds`` aggregate coordinator-side backpressure
        stalls across all worker inboxes.  ``bytes_sent`` /
        ``bytes_received`` are the coordinator->worker and
        worker->coordinator bytes the TCP channels moved (see
        :meth:`repro.net.endpoint.CoordinatorChannel.stats`); the queue
        transport pickles inside ``multiprocessing`` and reports 0.
        Like the blocked counters they cover each worker's current
        incarnation.
        """
        stats = dict(self._wire)
        stats["workers"] = self.procs
        stats["blocked_sends"] = sum(
            h.inbox.blocked_sends for h in self._workers
        )
        stats["blocked_seconds"] = float(
            sum(h.inbox.blocked_seconds for h in self._workers)
        )
        channels = [] if self._listener is None else [
            c for h in self._workers for c in (h.inbox, h.reports)
            if c is not None
        ]
        stats["bytes_sent"] = sum(c.bytes_sent for c in channels)
        stats["bytes_received"] = sum(c.bytes_received for c in channels)
        return stats

    def durability_stats(self) -> dict:
        """WAL/checkpoint accounting when durable, else an empty dict
        (see :meth:`repro.dist.recovery.DurableCoordinator.stats`)."""
        return {} if self._durable is None else self._durable.stats()

    # ------------------------------------------------------------------
    # Snapshot / restore (delegated to the inner session)
    # ------------------------------------------------------------------
    def snapshot(self, path, *, extra: dict | None = None):
        self.flush()
        return self.inner.snapshot(path, extra=extra)

    @staticmethod
    def peek(path) -> dict:
        return MonitoringSession.peek(path)

    @classmethod
    def restore(cls, path, *, network=None, **kwargs) -> "DistributedSession":
        """Resume a snapshot bundle under the distributed runtime.

        Snapshots are runtime-agnostic (all protocol state lives in the
        coordinator-side bank), so bundles written by either session
        class restore into either.
        """
        inner = MonitoringSession.restore(path, network=network)
        session = cls(inner.spec, _inner=inner, **kwargs)
        session.restored_extra = inner.restored_extra
        return session

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, collect outstanding round-sync acks, stop the workers."""
        if self._closed:
            return
        self.flush()
        # Outstanding threshold acks make the wire accounting of a
        # fault-free run deterministic before the workers go away.
        deadline = time.monotonic() + 30.0
        while any(
            h.thresholds_acked < h.thresholds_sent and h.alive()
            for h in self._workers
        ):
            if not self._dispatch_available():
                self._wait_reports()
            if time.monotonic() > deadline:  # pragma: no cover - defensive
                break
        self._closed = True
        if self._durable is not None:
            # A clean shutdown leaves an empty WAL and a checkpoint of
            # the complete run — restartable, with nothing to replay.
            self._durable.close()
        for handle in self._workers:
            if handle.alive():
                try:
                    handle.inbox.send(
                        Shutdown(), alive=handle.alive, timeout=5.0
                    )
                except TransportClosed:
                    pass
        for handle in self._workers:
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():  # pragma: no cover - defensive
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
        if self._listener is not None:
            self._listener.close()
        else:
            for handle in self._workers:
                handle.inbox.queue.cancel_join_thread()
                if handle.reports is not None:
                    handle.reports.queue.cancel_join_thread()

    def __enter__(self) -> "DistributedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            if not getattr(self, "_closed", True):
                for handle in self._workers:
                    if handle.alive():
                        handle.process.terminate()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedSession({self.inner.spec.algorithm!r}, "
            f"network={self.inner.network.name!r}, procs={self.procs}, "
            f"pending={self._seq - self._applied_seq})"
        )

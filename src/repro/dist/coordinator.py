"""The coordinator event loop and :class:`DistributedSession`.

:class:`DistributedSession` is a
:class:`~repro.api.session.MonitoringSession` whose sites are real
worker processes (:mod:`repro.dist.site`) running the site-side half of
Algorithm 2.  It inherits the session's ingest prologue, reads,
snapshots and serving, and replaces only the apply step.  Per ingest
round it

1. takes the batch the shared prologue admitted, with sites from the
   session partitioner (the same stream the in-process path consumes),
2. splits the batch across workers by hosted-site shard and ships one
   :class:`~repro.dist.messages.IngestBatch` frame per worker over the
   worker's one TCP connection (:mod:`repro.net`; full socket buffers =
   backpressure: ingest stalls instead of buffering unboundedly),
3. drains :class:`~repro.dist.messages.ValueReport` frames from the
   same connections, re-aligns them by round, and applies each round's
   per-site aggregates to the session's counter bank **in ascending
   site order** as one dense ``(k, n_counters)`` table
   (``CounterBank.bulk_add_sites``) — the same apply the in-process
   dense path makes, so the bank state, message-log tallies (epoch
   included), and RNG consumption are bit-identical to the in-process
   channel.

Rounds may be in flight when :meth:`~DistributedSession.ingest`
returns (``max_pending``); :meth:`~DistributedSession.flush` settles
them, and every inherited read flushes first.

The paper's round broadcast (Algorithm 2) is a *protocol* message: the
bank tallies it when an apply starts new counter rounds.  Workers hold
no protocol state, so no frame carries it.

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
from multiprocessing.connection import wait as _wait_connections

import numpy as np

from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.dist.messages import IngestBatch, Shutdown, ValueReport
from repro.dist.site import _site_worker_main
from repro.dist.transport import TransportClosed
from repro.errors import ExecutionError, SessionError, StreamError
from repro.utils.procs import worker_context


class _WorkerHandle:
    """Driver-side record of one site worker process."""

    __slots__ = (
        "index", "sites", "process", "channel", "state", "unreported",
        "respawns",
    )

    def __init__(self, index: int, sites: tuple[int, ...]) -> None:
        self.index = index
        self.sites = sites
        self.process = None
        #: This incarnation's coordinator-side channel
        #: (:class:`~repro.net.endpoint.CoordinatorChannel`): batches go
        #: down it, reports come up it.  Opened fresh per incarnation:
        #: the listener then refuses every Hello but this incarnation's,
        #: so a dead predecessor's lingering socket can neither wedge
        #: nor impersonate the replacement.
        self.channel = None
        #: Last state_dict the worker reported (respawn hand-off).
        self.state: dict | None = None
        #: seq -> (data, site_ids) sub-batches sent but not yet reported
        #: by this worker (``data`` in the session's wire dtype);
        #: replayed verbatim after a respawn.
        self.unreported: dict[int, tuple] = {}
        self.respawns = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class DistributedSession(MonitoringSession):
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
    max_respawns:
        Worker deaths tolerated per worker slot before the session gives
        up with :class:`~repro.errors.ExecutionError`.
    transport:
        Retired: workers always dial the coordinator's TCP listener and
        speak the framed wire protocol (``docs/networking.md``).
        ``"tcp"`` and ``"queue"`` (the removed in-host wire) are both
        accepted so existing callers and recovery payloads keep
        working; neither selects any code.
    poll_interval:
        Liveness-poll cadence threaded into every transport end
        (defaults to :data:`~repro.dist.transport.POLL_INTERVAL`).
    worker_faults:
        Test hook: declarative fault specs (see
        :mod:`repro.dist.transport` and :mod:`repro.net.transport`)
        installed on a worker's transport, keyed by worker index.
    coordinator_faults:
        Test hook: fault specs installed listener-side on a
        worker's channel (see :mod:`repro.net.endpoint`), keyed by
        worker index.
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
        The interface the listener binds (default loopback;
        ``"0.0.0.0"`` for all interfaces) and, when binding a wildcard,
        the address workers are told to dial.
    max_frame_bytes:
        Per-frame payload ceiling for both directions
        (default :data:`repro.net.wire.MAX_FRAME_BYTES`).
    heartbeat_timeout:
        Worker-side dead-peer threshold in seconds (no frame nor
        heartbeat for this long drops the connection; default off).
    """

    #: JSON-ready summary of the recovery this session restarted from
    #: (``None`` unless built with ``recover_from``).
    recovery_info: dict | None = None

    def __init__(self, spec: EstimatorSpec | None = None, *, network=None,
                 recover_from=None, **runtime) -> None:
        if recover_from is not None:
            if spec is not None:
                raise SessionError(
                    "recover_from rebuilds the spec and state from the "
                    "recovery directory; do not pass spec"
                )
            from repro.dist.recovery import recovery_spec

            spec = recovery_spec(recover_from)
            runtime["wal_dir"] = recover_from
        elif spec is None:
            raise SessionError(
                "spec is required unless recover_from is given"
            )
        if isinstance(spec.seed, np.random.Generator):
            raise SessionError(
                "DistributedSession ships its spec to worker processes and "
                "needs a serializable (int or None) seed, not a Generator"
            )
        super().__init__(spec, network=network)
        if recover_from is not None:
            # Loaded before any worker, socket or WAL file opens, as
            # restore() loads a bundle, so a refused recovery directory
            # starts nothing.
            from repro.dist.recovery import load_recovery

            self.recovery_info = load_recovery(recover_from, self)
        self._open(**runtime)

    def _open(
        self,
        *,
        procs: int | None = None,
        max_pending: int = 1,
        max_respawns: int = 5,
        transport: str = "tcp",
        poll_interval: float | None = None,
        worker_faults: dict | None = None,
        coordinator_faults: dict | None = None,
        wal_dir=None,
        wal_fsync: str = "always",
        wal_fsync_interval: int = 8,
        checkpoint_rounds: int | None = None,
        wal_crash: dict | None = None,
        bind_address: str | None = None,
        advertise_address: str | None = None,
        max_frame_bytes: int | None = None,
        heartbeat_timeout: float | None = None,
    ) -> None:
        """Check the runtime arguments, then open the WAL, the listener
        and the workers over the session's built (and loaded) state."""
        self._durable = None
        recovering = self.recovery_info is not None
        self._incarnation = (
            self.recovery_info["incarnation"] if recovering else 0
        )
        # Event batches travel in the network's state dtype (uint8 on
        # LINK and ALARM); the wire codec carries whatever dtype it is
        # given (docs/networking.md).
        self._wire_dtype = self.network.state_dtype
        k = self.spec.n_sites
        if procs is None:
            procs = min(k, os.cpu_count() or 1)
        procs = int(procs)
        if procs < 1:
            raise SessionError(f"procs must be positive, got {procs}")
        self.procs = min(procs, k)
        self.max_pending = max(1, int(max_pending))
        self.max_respawns = int(max_respawns)
        if transport not in ("queue", "tcp"):
            raise SessionError(
                f"transport must be 'queue' or 'tcp', got {transport!r}"
            )
        self._poll_interval = (
            None if poll_interval is None else float(poll_interval)
        )
        self._worker_faults = dict(worker_faults or {})
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
        if wal_crash is not None and wal_dir is None:
            raise SessionError("wal_crash requires wal_dir")
        self._replaying = False
        #: Set when a worker slot exhausted ``max_respawns``: the
        #: session is dead, and :meth:`close` only releases it.
        self._gave_up = False
        #: Round bookkeeping: seq of the last round shipped / applied.
        self._seq = 0
        self._applied_seq = 0
        #: seq -> in-flight round: batch size, expected worker set,
        #: received {worker: aggregates}, and the ship timestamp.
        self._rounds: dict[int, dict] = {}
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
        #: Global site id -> worker index (contiguous shards).
        bounds = np.linspace(0, k, self.procs + 1).astype(np.int64)
        self._site_to_worker = np.repeat(
            np.arange(self.procs, dtype=np.int64), np.diff(bounds)
        )
        self._workers: list[_WorkerHandle] = []
        self._listener = None
        self._closed = False
        self._ctx = worker_context()
        # Every argument is checked by now (the WAL's own first thing in
        # DurableCoordinator): a failure past here releases what opened.
        try:
            if wal_dir is not None:
                from repro.dist.recovery import DurableCoordinator

                self._durable = DurableCoordinator(
                    wal_dir, self, fsync=wal_fsync,
                    fsync_interval=wal_fsync_interval,
                    checkpoint_rounds=checkpoint_rounds,
                    crash=wal_crash, incarnation=self._incarnation,
                    fresh=not recovering,
                )
                if recovering:
                    # Commit the recovery: bump the on-disk incarnation,
                    # then fold the replayed WAL into a fresh checkpoint
                    # so round numbering can restart at 1 and an
                    # immediate re-crash recovers from here instead of
                    # replaying.
                    self._durable._write_state()
                    self._durable.checkpoint()
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
            for w in range(self.procs):
                handle = _WorkerHandle(
                    w, tuple(range(int(bounds[w]), int(bounds[w + 1])))
                )
                self._workers.append(handle)
                self._spawn(handle)
        except BaseException:
            self._release()
            raise

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _payload(self, handle: _WorkerHandle) -> dict:
        return {
            "worker": handle.index,
            "spec": self.spec.to_dict(),
            "sites": list(handle.sites),
            "state": handle.state,
            "fault": self._worker_faults.get(handle.index),
            "poll_interval": self._poll_interval,
            # The worker dials the listener and authenticates as this
            # exact incarnation (of this exact coordinator incarnation:
            # a worker spawned by a crashed coordinator life is refused
            # by its successor).
            "net": {
                "address": self._listener.address,
                "token": self._listener.token,
                "incarnation": handle.respawns,
                "coordinator": self._incarnation,
                "max_frame_bytes": self._max_frame_bytes,
                "heartbeat_timeout": self._heartbeat_timeout,
            },
        }

    def _spawn(self, handle: _WorkerHandle) -> None:
        # A fresh channel per incarnation (see _WorkerHandle.__init__).
        handle.channel = self._listener.open_channel(
            handle.index, handle.respawns,
            fault=self._coordinator_faults.get(handle.index),
        )
        process = self._ctx.Process(
            target=_site_worker_main, args=(self._payload(handle),),
            daemon=True,
        )
        process.start()
        handle.process = process  # only a started process is joined

    def _revive(self, handle: _WorkerHandle) -> None:
        """Respawn a dead worker from its last reported state and replay.

        The replacement resumes via the PR-3 ``state_dict`` hand-off
        (:meth:`~repro.dist.site.SiteShard.load_state_dict`); sub-batches
        the dead incarnation never reported are re-shipped in round
        order.  A report that *did* reach the coordinator before the
        death is deduplicated at dispatch, so the contract survives the
        race.
        """
        handle.process.join(timeout=1.0)
        exitcode = handle.process.exitcode
        # Close the dead incarnation now: its sentinel and pipe fds
        # would otherwise wait for the garbage collector.
        handle.process.close()
        handle.process = None
        handle.respawns += 1
        self._wire["worker_respawns"] += 1
        if handle.respawns > self.max_respawns:
            self._gave_up = True
            raise ExecutionError(
                f"site worker {handle.index} died {handle.respawns} times "
                f"(last exit code {exitcode}); giving up"
            )
        # A fresh channel: frames the dead worker never drained are
        # covered by the unreported replay below, and a stale outbox
        # must not leak them to the replacement twice.
        self._spawn(handle)
        for seq in sorted(handle.unreported):
            data, site_ids = handle.unreported[seq]
            self._send(handle, IngestBatch(seq, data, site_ids))

    def _send(self, handle: _WorkerHandle, frame) -> None:
        """Ship one frame, draining reports while blocked (deadlock-free).

        The socket buffers are the backpressure window: when the worker
        is busy (or slow), the send blocks.  Reports are drained during
        the wait so a worker blocked on its own report send can always
        make progress, and worker death during the wait triggers
        revive-and-retry.
        """
        while True:
            if not handle.alive():
                self._revive(handle)
            try:
                handle.channel.send(frame, alive=handle.alive, timeout=0.25)
                return
            except TransportClosed:
                self._dispatch_available()

    # ------------------------------------------------------------------
    # Report dispatch and round application
    # ------------------------------------------------------------------
    def _dispatch(self, frame) -> None:
        if not isinstance(frame, ValueReport):  # pragma: no cover
            raise ExecutionError(f"coordinator got unknown frame {frame!r}")
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

    def _maybe_replay(self) -> None:
        """Replay unreported rounds of workers whose connection broke.

        Frames that were in flight on a severed/replaced connection are
        gone; the worker itself is (usually) still alive, so the
        revive-replay path never fires.  Re-shipping the
        worker's unreported sub-batches closes the gap — re-encoded
        aggregates are pure functions of the sub-batch and reports are
        deduplicated per round, so a replay that races the original
        report applies exactly once either way.
        """
        if self._replaying:
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
        """Drain everything already received without blocking.

        A worker killed mid-send leaves at most a half-written frame on
        its dead connection; the listener discards it with the
        connection (EOF drops the decoder), so ``try_recv`` only ever
        returns whole frames and never raises here.
        """
        got_any = False
        while True:
            progressed = False
            self._listener.pump(0.0)
            self._maybe_replay()
            for handle in self._workers:
                frame = handle.channel.try_recv()
                if frame is not None:
                    self._dispatch(frame)
                    progressed = got_any = True
            if not progressed:
                return got_any

    def _wait_reports(self, timeout: float = 0.25) -> None:
        """Sleep until a report may be ready or a worker dies.

        Blocks on the listener and every live connection socket
        (``multiprocessing.connection.wait`` accepts anything with a
        ``fileno``) and the worker process sentinels together, so frame
        arrival, a (re)connect, and worker death all wake the event
        loop immediately instead of on a poll tick.
        """
        waitables = self._listener.waitables()
        waitables.extend(
            h.process.sentinel for h in self._workers if h.alive()
        )
        _wait_connections(waitables, timeout=timeout)

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
        global ascending site order ``bulk_add_sites`` requires.  It
        applies the round as one dense table, which leaves the bank,
        message log and RNG exactly where the in-process paths leave
        them for the same batch.
        """
        bank = self._estimator.bank
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
            bank.bulk_add_sites(
                (agg.site, agg.counter_ids, agg.counts)
                for worker_index in sorted(record["got"])
                for agg in record["got"][worker_index]
            )
            self._estimator.events_seen += record["m"]
            self._applied_seq = seq
            del self._rounds[seq]
            self._wire["rounds_applied"] += 1
            self._wire["round_latency_seconds"] += (
                time.monotonic() - record["sent_at"]
            )
            if self._durable is not None:
                self._durable.after_apply(seq, record)

    def _settle(self, allowed_pending: int) -> None:
        while self._seq - self._applied_seq > allowed_pending:
            self._dispatch_available()
            self._apply_ready()
            if self._seq - self._applied_seq > allowed_pending:
                self._drain_blocking()
                self._apply_ready()

    # ------------------------------------------------------------------
    # The apply step (the prologue is MonitoringSession.ingest's)
    # ------------------------------------------------------------------
    def _admit(self, data: np.ndarray, validate: bool) -> np.ndarray:
        if not validate and not np.can_cast(data.dtype, self._wire_dtype):
            # Nothing else scans a trusted batch, and narrowing it in
            # _apply must be lossless or refused — never a silent wrap.
            # The in-process session has no such refusal, so it comes
            # before the partitioner draw: a refused batch leaves the two
            # sessions' assignment streams aligned.  A batch already in
            # the wire dtype (the fused sampler's chunk) cannot wrap.
            limit = np.iinfo(self._wire_dtype).max
            if data.size and (data.min() < 0 or data.max() > limit):
                raise StreamError(
                    "event contains state indices outside the "
                    f"{self._wire_dtype.name} wire range [0, {limit}]"
                )
        return super()._admit(data, validate)

    def _apply(self, data: np.ndarray, site_ids: np.ndarray) -> None:
        """Split, ship and settle one round."""
        # One cast ahead of the per-worker split: the split copies, the
        # replay buffers, the frame CRCs and the socket all move the
        # narrow bytes (validate=True's range scan proved it lossless).
        # A batch already in the wire dtype is not copied.  The cast
        # keeps the input's layout; each row split below returns a
        # C-ordered sub-batch, so frames and replay buffers are the same
        # whatever the layout.  From a sampler's F-ordered batch the
        # split does the transpose: ~1 ms more per 2000 LINK rows than
        # from C order, against ~23 ms saved in the draw.
        data = data.astype(self._wire_dtype, copy=False)
        site_ids = site_ids.astype(np.int64, copy=False)
        self._seq += 1
        seq = self._seq
        workers_of = self._site_to_worker[site_ids]
        expected = set()
        record = {
            "m": int(data.shape[0]), "expected": expected, "got": {},
            "sent_at": time.monotonic(),
        }
        if self._durable is not None:
            # Captured *at ingest*: with pipelining the live partitioner
            # advances past the round being applied, so the WAL record
            # (and through it the checkpoint) must carry the state as of
            # this round's assignment draw.
            record["partitioner"] = self.partitioner.state_dict()
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

    def flush(self) -> None:
        """Block until every in-flight round is applied."""
        self._settle(0)

    def wire_stats(self) -> dict:
        """Wire-frame accounting of the runtime itself (JSON-ready).

        Frames, not protocol messages: ``batch_frames_sent`` counts
        coordinator->worker sub-batches, ``report_frames_received`` the
        batched per-round replies, and so on.  ``threshold_frames_sent``
        and ``sync_frames_received`` stay 0: no frame carries the round
        broadcast (module docstring), and existing readers sum them.
        ``blocked_sends`` / ``blocked_seconds`` aggregate
        coordinator-side backpressure stalls across all worker sends.
        ``bytes_sent`` / ``bytes_received`` are the coordinator->worker
        and worker->coordinator bytes the TCP connections moved (see
        :meth:`repro.net.endpoint.CoordinatorChannel.stats`).  Like the
        blocked counters they cover each worker's current incarnation.
        """
        stats = dict(self._wire)
        stats["workers"] = self.procs
        channels = [h.channel for h in self._workers]
        stats["blocked_sends"] = sum(c.blocked_sends for c in channels)
        stats["blocked_seconds"] = float(
            sum(c.blocked_seconds for c in channels)
        )
        stats["bytes_sent"] = sum(c.bytes_sent for c in channels)
        stats["bytes_received"] = sum(c.bytes_received for c in channels)
        return stats

    def durability_stats(self) -> dict:
        """WAL/checkpoint accounting when durable, else an empty dict
        (see :meth:`repro.dist.recovery.DurableCoordinator.stats`)."""
        return {} if self._durable is None else self._durable.stats()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, checkpoint when durable, stop the workers.

        After the session gave up on a worker there is nothing to flush:
        close only stops the surviving workers and closes the listener,
        and a durable session closes its WAL without a checkpoint, so
        ``recover_from`` lands on the last applied round.
        """
        if self._closed:
            return
        try:
            if not self._gave_up:
                self.flush()
                if self._durable is not None:
                    # A clean shutdown leaves an empty WAL and a
                    # checkpoint of the complete run — restartable,
                    # with nothing to replay.
                    self._durable.close()
        finally:
            self._release()

    def _release(self) -> None:
        """Stop and close every worker, the listener and the WAL file."""
        self._closed = True
        for handle in self._workers:
            if handle.alive():
                try:
                    handle.channel.send(
                        Shutdown(), alive=handle.alive, timeout=5.0
                    )
                except TransportClosed:
                    pass
        for handle in self._workers:
            process, handle.process = handle.process, None
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.kill()
                    process.join()
                process.close()
        if self._listener is not None:
            self._listener.close()
        if self._durable is not None:
            self._durable.wal.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            if not getattr(self, "_closed", True):
                for handle in self._workers:
                    if handle.alive():
                        handle.process.terminate()
        except Exception:
            pass

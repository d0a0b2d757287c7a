"""Coordinator durability: write-ahead round log, checkpoints, recovery.

The protocol is coordinator-centric — the counter banks, the
:class:`~repro.monitoring.channel.MessageLog`, the HYZ RNG streams, and
the partitioner all live in the coordinator's
:class:`~repro.dist.coordinator.DistributedSession` — so a coordinator crash
used to lose the whole monitoring run.  This module makes the
coordinator restartable with three pieces:

**Write-ahead round log** (:class:`WriteAheadLog`).  Before a round's
reports are applied to the banks, the coordinator appends one
crash-atomic record: a length-prefixed, CRC-32-guarded envelope (the
same framing discipline as :mod:`repro.net.wire`, under its own
``b"RW"`` magic) holding the round's :class:`~repro.dist.messages.ValueReport`
wire frames plus a JSON header with the round seq, batch size, the
``MessageLog`` epoch *before* the apply, and the partitioner state
captured at ingest time.  Because aggregates are pure functions of the
sub-batch and rounds apply in ascending worker/site order, replaying a
record reproduces the apply bit for bit — RNG consumption included.

**Checkpoints** (:meth:`DurableCoordinator.checkpoint`).  Periodically
the session is written through the crash-atomic bundle machinery of
:meth:`~repro.api.session.MonitoringSession.snapshot` (versioned arrays
first, one atomic ``meta.json`` replace as the commit point, every file
fsynced) and the WAL is truncated: the
append -> apply -> checkpoint ordering guarantees every logged round is
folded into the bundle.

**Recovery** (:func:`load_recovery`, reached through
``DistributedSession(recover_from=dir)``).  Build the session from the
directory's spec, load the last committed checkpoint into it (or start
fresh if none committed), replay WAL rounds in
order through the exact ascending worker/site apply path, restore the
partitioner to the last replayed round's ingest-time state, bump the
coordinator incarnation (TCP workers of the dead incarnation are
refused at the :class:`~repro.net.endpoint.Listener` handshake), and
immediately re-checkpoint so recovery itself is crash-safe and the WAL
restarts empty for the new round numbering.

Durability scope: a WAL record survives coordinator *process* death
under any fsync policy (the page cache outlives ``os._exit``/SIGKILL);
the ``always``/``interval`` fsync policies extend the guarantee to
host/power failure.  ``docs/recovery.md`` walks the format, the
lifecycle, and the byte-identity argument; the chaos matrix in
``tests/test_recovery.py`` pins all of it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

from repro.dist.messages import ValueReport
from repro.dist.transport import FAULT_EXIT_CODE
from repro.errors import ExecutionError
from repro.net.wire import MAX_FRAME_BYTES, FrameDecoder, WireError, encode_frame

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "WAL_NAME",
    "STATE_NAME",
    "CHECKPOINT_NAME",
    "RECOVERY_SCHEMA",
    "CRASH_POINTS",
    "RecoveryError",
    "WalCorrupt",
    "RoundRecord",
    "WriteAheadLog",
    "DurableCoordinator",
    "load_recovery",
    "recovery_spec",
    "recovery_stream",
    "run_crashing_coordinator",
]

WAL_MAGIC = b"RW"
WAL_VERSION = 1
WAL_KIND_ROUND = 1

#: magic(2) | version(1) | kind(1) | payload_len(u32) | crc32(u32) —
#: deliberately the same envelope shape as :data:`repro.net.wire.HEADER`
#: so the torn/corrupt failure modes (and their tests) carry over.
_WAL_HEADER = struct.Struct("<2sBBII")
_META_LEN = struct.Struct("<I")

#: Fixed names inside a recovery directory.
WAL_NAME = "wal.log"
STATE_NAME = "coordinator.json"
CHECKPOINT_NAME = "checkpoint"

RECOVERY_SCHEMA = "repro-recovery-v1"

#: Seeded coordinator-kill injection points of the chaos harness.
CRASH_POINTS = ("pre-append", "post-append", "mid-checkpoint")


class RecoveryError(ExecutionError):
    """A recovery directory is missing, inconsistent, or unreplayable."""


class WalCorrupt(RecoveryError):
    """A WAL record is structurally corrupt (bad magic/version/CRC)."""


class RoundRecord:
    """One decoded WAL record: everything needed to re-apply a round.

    ``reports`` maps worker index to its list of
    :class:`~repro.dist.messages.SiteAggregate` (ascending site order,
    as shipped); ``epoch`` is the ``MessageLog`` epoch immediately
    before the round was applied (a replay-position check);
    ``partitioner`` is the session partitioner's ``state_dict`` as of
    this round's ingest (``None`` for explicit ``site_ids`` feeds).
    """

    __slots__ = ("seq", "m", "epoch", "partitioner", "reports")

    def __init__(self, seq: int, m: int, epoch: int,
                 partitioner: dict | None, reports: dict) -> None:
        self.seq = int(seq)
        self.m = int(m)
        self.epoch = int(epoch)
        self.partitioner = partitioner
        self.reports = reports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundRecord(seq={self.seq}, m={self.m}, epoch={self.epoch}, "
            f"workers={sorted(self.reports)})"
        )


def _encode_record(seq: int, m: int, epoch: int, partitioner: dict | None,
                   reports: dict) -> bytes:
    """Serialize one round into a self-delimiting WAL record."""
    workers = sorted(int(w) for w in reports)
    frames = []
    for worker in workers:
        # state=None: the worker resume state is wire-level bookkeeping;
        # recovery spawns fresh workers, so only the aggregates matter.
        buffers = encode_frame(ValueReport(worker, seq, reports[worker], None))
        frames.append(b"".join(bytes(b) for b in buffers))
    meta = {
        "seq": int(seq),
        "m": int(m),
        "epoch": int(epoch),
        "partitioner": partitioner,
        "workers": workers,
    }
    try:
        meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise RecoveryError(
            f"round {seq} WAL meta is not JSON-serializable: {exc}"
        ) from exc
    payload = _META_LEN.pack(len(meta_bytes)) + meta_bytes + b"".join(frames)
    header = _WAL_HEADER.pack(
        WAL_MAGIC, WAL_VERSION, WAL_KIND_ROUND, len(payload),
        zlib.crc32(payload),
    )
    return header + payload


def _decode_record(payload: bytes) -> RoundRecord:
    """Rebuild a :class:`RoundRecord` from a CRC-verified payload."""
    if len(payload) < _META_LEN.size:
        raise WalCorrupt("WAL record payload too short for a meta length")
    (meta_len,) = _META_LEN.unpack_from(payload, 0)
    offset = _META_LEN.size + meta_len
    if offset > len(payload):
        raise WalCorrupt("WAL record meta overruns its payload")
    try:
        meta = json.loads(payload[_META_LEN.size:offset])
    except ValueError as exc:
        raise WalCorrupt(f"WAL record meta is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict) or not all(
        isinstance(meta.get(field), int) for field in ("seq", "m", "epoch")
    ):
        raise WalCorrupt(
            "WAL record meta is not an object with integer seq, m and epoch"
        )
    decoder = FrameDecoder()
    try:
        frames = decoder.feed(payload[offset:])
    except WireError as exc:
        raise WalCorrupt(f"WAL record carries a corrupt frame: {exc}") from exc
    if decoder.pending_bytes:
        raise WalCorrupt("WAL record ends mid-frame")
    reports = {}
    for frame in frames:
        if not isinstance(frame, ValueReport):
            raise WalCorrupt(
                f"WAL record carries a {type(frame).__name__}, expected "
                "only ValueReport frames"
            )
        reports[frame.worker] = frame.aggregates
    if sorted(reports) != [int(w) for w in meta.get("workers", ())]:
        raise WalCorrupt(
            f"WAL record frames name workers {sorted(reports)} but the "
            f"meta promised {meta.get('workers')}"
        )
    return RoundRecord(
        meta["seq"], meta["m"], meta["epoch"], meta.get("partitioner"),
        reports,
    )


class WriteAheadLog:
    """Append-only log of applied rounds, one crash-atomic record each.

    ``fsync`` selects the durability policy: ``"always"`` syncs after
    every append (host-crash safe per round), ``"interval"`` after every
    ``fsync_interval`` appends, ``"off"`` never (coordinator-process
    crashes are still safe under all three — the OS page cache survives
    the process).  :meth:`scan` tolerates a torn tail (a crash mid-write
    loses at most the in-flight record) but raises :class:`WalCorrupt`
    on structural damage — a partial round is never replayed.
    """

    def __init__(self, path, *, fsync: str = "always",
                 fsync_interval: int = 8) -> None:
        _check_fsync_policy(fsync, fsync_interval)
        self.path = Path(path)
        self.fsync = fsync
        self.fsync_interval = int(fsync_interval)
        self._fh = open(self.path, "ab")
        self._unsynced = 0
        #: Accounting surfaced by ``durability_stats`` / the benches.
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0

    # ------------------------------------------------------------------
    def append_round(self, seq: int, m: int, epoch: int,
                     partitioner: dict | None, reports: dict) -> int:
        """Append one round's record; returns its size in bytes."""
        record = _encode_record(seq, m, epoch, partitioner, reports)
        self._fh.write(record)
        self._fh.flush()
        self.records_appended += 1
        self.bytes_appended += len(record)
        self._unsynced += 1
        if self.fsync == "always" or (
            self.fsync == "interval"
            and self._unsynced >= self.fsync_interval
        ):
            self.sync(force=True)
        return len(record)

    def sync(self, *, force: bool = False) -> None:
        """fsync the log file (no-op under ``fsync="off"`` unless forced)."""
        if self._unsynced == 0 or (self.fsync == "off" and not force):
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self._unsynced = 0

    # ------------------------------------------------------------------
    @staticmethod
    def scan(path, *, max_bytes: int = MAX_FRAME_BYTES) -> list:
        """Decode every complete record in ``path``, in append order.

        A torn tail — fewer bytes than the last header promises — is
        where the log stops: the records before it are returned and the
        partial one is silently dropped (a crash mid-append can lose
        only the round being written, which was by definition not yet
        applied).  Anything *structurally* wrong in the complete region
        (bad magic or version, an implausible length, a CRC mismatch, a
        frame that will not decode) raises :class:`WalCorrupt` instead:
        silence there could replay a damaged round into the banks.
        """
        blob = Path(path).read_bytes()
        records = []
        offset = 0
        while offset < len(blob):
            if offset + _WAL_HEADER.size > len(blob):
                break  # torn tail: a partial header
            magic, version, kind, length, crc = _WAL_HEADER.unpack_from(
                blob, offset
            )
            if magic != WAL_MAGIC:
                raise WalCorrupt(
                    f"bad WAL magic {magic!r} at offset {offset}; this is "
                    "not a repro round log"
                )
            if version != WAL_VERSION:
                raise WalCorrupt(
                    f"unsupported WAL version {version} at offset {offset} "
                    f"(expected {WAL_VERSION})"
                )
            if kind != WAL_KIND_ROUND:
                raise WalCorrupt(
                    f"unknown WAL record kind {kind} at offset {offset}"
                )
            if length > max_bytes:
                raise WalCorrupt(
                    f"WAL record at offset {offset} declares {length} "
                    f"payload bytes, over the {max_bytes}-byte limit"
                )
            start = offset + _WAL_HEADER.size
            if start + length > len(blob):
                break  # torn tail: a partial payload
            payload = blob[start:start + length]
            if zlib.crc32(payload) != crc:
                raise WalCorrupt(
                    f"WAL record at offset {offset} failed its CRC-32 "
                    f"check ({length} payload bytes)"
                )
            records.append(_decode_record(payload))
            offset = start + length
        return records

    # ------------------------------------------------------------------
    def truncate_through(self, seq: int | None) -> None:
        """Atomically drop every record with ``record.seq <= seq``.

        ``seq=None`` drops everything (the checkpoint case: the
        append -> apply -> checkpoint ordering means every record in the
        log is already folded into the bundle being committed).  It
        truncates the open log to zero bytes in place and fsyncs it: the
        truncate is atomic, and a reset that never reached the disk
        leaves records recovery skips as ``<= applied_seq``.
        Otherwise survivors are re-encoded into a sibling temp file which
        then atomically replaces the log, so a crash mid-truncate leaves
        either the old log or the new one — never a hybrid.
        """
        if seq is None:
            self._fh.truncate(0)
            self._fh.seek(0)
            os.fsync(self._fh.fileno())
            self._unsynced = 0
            return
        self.sync(force=True)
        survivors = [
            record for record in self.scan(self.path)
            if record.seq > int(seq)
        ]
        tmp = self.path.with_name(f".tmp-{self.path.name}")
        with open(tmp, "wb") as fh:
            for record in survivors:
                fh.write(_encode_record(
                    record.seq, record.m, record.epoch, record.partitioner,
                    record.reports,
                ))
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        _fsync_dir(self.path.parent)
        self._fh = open(self.path, "ab")
        self._unsynced = 0

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({str(self.path)!r}, fsync={self.fsync!r}, "
            f"appended={self.records_appended})"
        )


def _check_fsync_policy(fsync: str, fsync_interval: int) -> None:
    if fsync not in ("always", "interval", "off"):
        raise RecoveryError(
            f"fsync policy must be 'always', 'interval', or 'off', "
            f"got {fsync!r}"
        )
    if fsync == "interval" and int(fsync_interval) < 1:
        raise RecoveryError(
            f"fsync_interval must be positive, got {fsync_interval}"
        )


def _fsync_dir(path) -> None:
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DurableCoordinator:
    """The coordinator's durability sidecar: WAL + checkpoints + state.

    Owned by a :class:`~repro.dist.coordinator.DistributedSession`
    constructed with ``wal_dir`` (``session``; any
    :class:`~repro.api.session.MonitoringSession` works, which the tests
    and the layer replay use); the session calls :meth:`log_round`
    right before applying a complete round and :meth:`after_apply`
    right after, and this object does the rest — appends, periodic
    checkpoints (every ``checkpoint_rounds`` applied rounds; always on
    :meth:`close`), WAL truncation, and the ``coordinator.json`` state
    file that records the spec and the coordinator incarnation for
    :func:`load_recovery`.

    ``crash`` is the chaos-harness hook: a declarative
    ``{"seq": N, "point": <CRASH_POINTS>}`` spec that hard-kills the
    process (``os._exit`` with
    :data:`~repro.dist.transport.FAULT_EXIT_CODE`) at the named
    injection point of round ``N`` — before the WAL append, after the
    append but before the apply, or midway through a checkpoint (after
    the arrays replace, before the ``meta.json`` commit).
    """

    def __init__(self, directory, session, *, fsync: str = "always",
                 fsync_interval: int = 8,
                 checkpoint_rounds: int | None = None,
                 crash: dict | None = None, incarnation: int = 0,
                 fresh: bool = True) -> None:
        self.directory = Path(directory)
        self.session = session
        self.incarnation = int(incarnation)
        # Every argument is checked before the directory is touched.
        _check_fsync_policy(fsync, fsync_interval)
        if checkpoint_rounds is not None and int(checkpoint_rounds) < 1:
            raise RecoveryError(
                f"checkpoint_rounds must be positive, got {checkpoint_rounds}"
            )
        self.checkpoint_rounds = (
            None if checkpoint_rounds is None else int(checkpoint_rounds)
        )
        self._crash = dict(crash) if crash else None
        if self._crash and self._crash.get("point") not in CRASH_POINTS:
            raise RecoveryError(
                f"crash point must be one of {CRASH_POINTS}, "
                f"got {self._crash.get('point')!r}"
            )
        self._applied_seq = 0
        #: Partitioner state as of the last *applied* round's ingest —
        #: what a checkpoint must persist.  The live partitioner can be
        #: ahead of it when rounds pipeline (``max_pending > 1``).
        self._partitioner_applied: dict | None = None
        self._since_checkpoint = 0
        self.checkpoints = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        if fresh:
            # A fresh durable session owns the directory: stale
            # artifacts of a previous run in the same location (benches
            # and tests rerun in fixed paths) must not replay into it.
            self._clear_directory()
            self._write_state()
        self.wal = WriteAheadLog(
            self.directory / WAL_NAME, fsync=fsync,
            fsync_interval=fsync_interval,
        )

    # ------------------------------------------------------------------
    def _clear_directory(self) -> None:
        for name in (WAL_NAME, STATE_NAME):
            (self.directory / name).unlink(missing_ok=True)
        checkpoint = self.directory / CHECKPOINT_NAME
        if checkpoint.is_dir():
            for entry in checkpoint.iterdir():
                entry.unlink()

    def _write_state(self) -> None:
        """Commit ``coordinator.json`` atomically (spec + incarnation)."""
        state = {
            "schema": RECOVERY_SCHEMA,
            "spec": self.session.spec.to_dict(),
            "incarnation": self.incarnation,
        }
        tmp = self.directory / f".tmp-{STATE_NAME}"
        tmp.write_text(json.dumps(state, indent=2) + "\n")
        _fsync_file(tmp)
        os.replace(tmp, self.directory / STATE_NAME)
        _fsync_dir(self.directory)

    def _maybe_crash(self, point: str, seq: int) -> None:
        crash = self._crash
        if (
            crash is not None
            and crash.get("point") == point
            and int(crash.get("seq", -1)) == int(seq)
        ):
            # os._exit: no atexit, no finally blocks, no socket
            # shutdown — the closest a test can get to SIGKILLing itself.
            os._exit(FAULT_EXIT_CODE)

    # ------------------------------------------------------------------
    # Hooks called by the coordinator event loop
    # ------------------------------------------------------------------
    def log_round(self, seq: int, record: dict) -> None:
        """WAL-append one complete round; called *before* the apply."""
        self._maybe_crash("pre-append", seq)
        # The unflushed log: this runs inside the session's round apply.
        self.wal.append_round(
            seq, record["m"], self.session._message_log.epoch,
            record.get("partitioner"), record["got"],
        )
        self._maybe_crash("post-append", seq)

    def after_apply(self, seq: int, record: dict) -> None:
        """Bookkeeping after a round applied; may trigger a checkpoint."""
        self._applied_seq = int(seq)
        if record.get("partitioner") is not None:
            self._partitioner_applied = record["partitioner"]
        self._since_checkpoint += 1
        if (
            self.checkpoint_rounds is not None
            and self._since_checkpoint >= self.checkpoint_rounds
        ):
            self.checkpoint()

    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the session durably and empty the WAL.

        The bundle must describe the state *as of the last applied
        round*, so the live partitioner (which may have advanced past
        it while rounds pipeline) is swapped for the applied-round
        state around the snapshot and restored after.
        """
        seq = self._applied_seq
        if (
            self._crash is not None
            and self._crash.get("point") == "mid-checkpoint"
            and int(self._crash.get("seq", -1)) == seq
        ):
            self._simulate_torn_checkpoint()
        partitioner = self.session.partitioner
        live_state = None
        if self._partitioner_applied is not None:
            live_state = partitioner.state_dict()
            partitioner.load_state_dict(self._partitioner_applied)
        try:
            # The bundle writer without the flush: a checkpoint runs
            # inside the session's round apply.
            self.session._write_bundle(
                self.directory / CHECKPOINT_NAME,
                extra={"recovery": {
                    "applied_seq": seq,
                    "incarnation": self.incarnation,
                }},
                durable=True,
            )
        finally:
            if live_state is not None:
                partitioner.load_state_dict(live_state)
        # Every WAL record is <= the applied seq here (records are
        # appended immediately before their apply), so the bundle just
        # committed covers the whole log.
        self.wal.truncate_through(None)
        self._since_checkpoint = 0
        self.checkpoints += 1

    def _simulate_torn_checkpoint(self) -> None:
        """Die exactly as a crash between the two atomic replaces would.

        A real mid-checkpoint crash window is after the new versioned
        arrays file landed but before the ``meta.json`` commit.  The
        simulation snapshots into a scratch directory, moves only the
        arrays file into the checkpoint directory (leaving the old
        ``meta.json`` — or none — in place), and exits hard.  Recovery
        must treat the orphan arrays as uncommitted: restore the *old*
        bundle (or start fresh) and take the whole round from the WAL.
        """
        scratch = self.directory / ".crash-scratch"
        self.session._write_bundle(scratch)
        checkpoint = self.directory / CHECKPOINT_NAME
        checkpoint.mkdir(exist_ok=True)
        for arrays in scratch.glob("arrays-*.npz"):
            os.replace(arrays, checkpoint / arrays.name)
        os._exit(FAULT_EXIT_CODE)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Final checkpoint + WAL close: a clean shutdown leaves an
        empty log and a bundle describing the complete run."""
        self.checkpoint()
        self.wal.close()

    def stats(self) -> dict:
        """JSON-ready durability accounting (for ``durability_stats``)."""
        return {
            "wal_records": self.wal.records_appended,
            "wal_bytes": self.wal.bytes_appended,
            "wal_fsyncs": self.wal.fsyncs,
            "fsync_policy": self.wal.fsync,
            "checkpoints": self.checkpoints,
            "incarnation": self.incarnation,
        }


def _fsync_file(path) -> None:
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def _read_state(directory: Path) -> dict:
    """The directory's validated ``coordinator.json``."""
    state_path = directory / STATE_NAME
    if not state_path.is_file():
        raise RecoveryError(
            f"no coordinator state file at {state_path}; not a recovery "
            "directory (was the session started with wal_dir?)"
        )
    try:
        state = json.loads(state_path.read_text())
    except ValueError as exc:
        raise RecoveryError(
            f"coordinator state file {state_path} is not valid JSON: {exc}"
        ) from exc
    if state.get("schema") != RECOVERY_SCHEMA:
        raise RecoveryError(
            f"coordinator state file {state_path} has schema "
            f"{state.get('schema')!r}, expected {RECOVERY_SCHEMA!r}"
        )
    return state


def recovery_spec(directory):
    """The :class:`~repro.api.spec.EstimatorSpec` a recovery directory's
    coordinator ran; raises :class:`RecoveryError` when ``directory``
    holds no valid ``coordinator.json``."""
    return _spec_of(_read_state(Path(directory)))


def _spec_of(state: dict):
    from repro.api.spec import EstimatorSpec

    return EstimatorSpec.from_dict(state["spec"])


def load_recovery(directory, session) -> dict:
    """Load a recovery directory's state into a freshly built session.

    ``session`` must be built from :func:`recovery_spec` of the same
    directory (another spec raises :class:`RecoveryError` before
    anything loads).  The last committed checkpoint is loaded into it
    the way :meth:`~repro.api.session.MonitoringSession.restore` loads a
    bundle, then every complete WAL round is re-applied through the
    ascending worker/site order, so banks — HYZ RNG state included — are
    byte-identical to the uninterrupted run.  Returns a JSON-ready
    ``info`` dict: ``replayed_rounds`` / ``checkpoint_seq`` /
    ``applied_seq`` and the *bumped* coordinator ``incarnation`` the
    restarted session must announce in its TCP handshakes.

    Raises :class:`RecoveryError` on a missing or inconsistent
    directory, :class:`WalCorrupt` on structural WAL damage, and
    :class:`~repro.errors.SessionError` if the checkpoint bundle's
    ``meta.json`` references arrays that are gone (a stale meta) — a
    partial round is never applied.
    """
    directory = Path(directory)
    state = _read_state(directory)
    if session.spec.to_dict() != _spec_of(state).to_dict():
        raise RecoveryError(
            f"session spec differs from the spec recorded in {directory}; "
            "build the session from recovery_spec() of that directory"
        )
    checkpoint = directory / CHECKPOINT_NAME
    if (checkpoint / "meta.json").is_file():
        # Orphan arrays files from a crash mid-checkpoint are simply
        # never referenced: the load opens only the file meta.json names.
        session._load_bundle(checkpoint)
        marker = (session.restored_extra or {}).get("recovery")
        if not isinstance(marker, dict) or "applied_seq" not in marker:
            raise RecoveryError(
                f"checkpoint bundle {checkpoint} carries no recovery "
                "marker; it was not written by a durable coordinator"
            )
        base_seq = int(marker["applied_seq"])
        checkpoint_seq = base_seq
    else:
        base_seq = 0
        checkpoint_seq = None

    wal_path = directory / WAL_NAME
    records = WriteAheadLog.scan(wal_path) if wal_path.is_file() else []
    estimator = session._estimator
    log = session._message_log
    expected = base_seq + 1
    replayed = 0
    last = None
    for record in records:
        if record.seq <= base_seq:
            continue  # already folded into the checkpoint
        if record.seq != expected:
            raise RecoveryError(
                f"WAL is not contiguous: expected round {expected} next, "
                f"found {record.seq}"
            )
        if record.epoch != log.epoch:
            raise RecoveryError(
                f"WAL round {record.seq} was logged at message-log epoch "
                f"{record.epoch} but replay reached epoch {log.epoch}; "
                "the checkpoint and the log disagree"
            )
        # The conformance-critical order: ascending worker, then each
        # worker's aggregates ascending by site — identical to
        # DistributedSession._apply_ready, so RNG consumption matches.
        estimator.bank.bulk_add_sites(
            (agg.site, agg.counter_ids, agg.counts)
            for worker in sorted(record.reports)
            for agg in record.reports[worker]
        )
        estimator.events_seen += record.m
        expected += 1
        replayed += 1
        last = record
    if last is not None and last.partitioner is not None:
        session.partitioner.load_state_dict(last.partitioner)

    return {
        "replayed_rounds": replayed,
        "checkpoint_seq": checkpoint_seq,
        "applied_seq": base_seq + replayed,
        "incarnation": int(state.get("incarnation", 0)) + 1,
    }


# ----------------------------------------------------------------------
# Chaos-harness entry points (importable from worker processes)
# ----------------------------------------------------------------------
def recovery_stream(network, *, n_events: int, chunk: int, seed: int):
    """The chaos stream: identical batches for driver and crashed child.

    Same construction as the bench streams — a
    :class:`~repro.bn.sampling.ForwardSampler` over a
    :class:`~repro.utils.rng.RandomSource` generator — so a recovered
    session resuming at batch ``events_seen // chunk`` re-feeds exactly
    the events the crashed run lost.
    """
    from repro.bn.sampling import ForwardSampler
    from repro.utils.rng import RandomSource

    sampler = ForwardSampler(network, seed=RandomSource(seed).generator())
    batches = []
    produced = 0
    while produced < n_events:
        size = min(int(chunk), int(n_events) - produced)
        batches.append(sampler.sample(size))
        produced += size
    return batches


def run_crashing_coordinator(payload: dict) -> None:
    """Spawn entry: run a durable coordinator that dies on schedule.

    ``payload`` is all-JSON-shaped (spawn-picklable): the spec as a
    dict, ``procs``, the recovery ``dir``, the WAL
    ``fsync`` policy and ``checkpoint_rounds``, an optional ``crash``
    spec (see :class:`DurableCoordinator`), and a ``stream`` dict
    (``seed`` / ``n_events`` / ``chunk``) naming the deterministic
    batches to feed.  Without a crash spec the run completes and exits
    0 — the driver asserts :data:`~repro.dist.transport.FAULT_EXIT_CODE`
    for crash runs and 0 otherwise.  A ``transport`` key, which payloads
    written while the runtime had two wires still carry, is ignored.
    """
    from repro.api.spec import EstimatorSpec
    from repro.dist.coordinator import DistributedSession

    spec = EstimatorSpec.from_dict(payload["spec"])
    net = spec.resolve_network()
    batches = recovery_stream(
        net,
        n_events=payload["stream"]["n_events"],
        chunk=payload["stream"]["chunk"],
        seed=payload["stream"]["seed"],
    )
    session = DistributedSession(
        spec, network=net,
        procs=payload.get("procs"),
        wal_dir=payload["dir"],
        wal_fsync=payload.get("fsync", "always"),
        checkpoint_rounds=payload.get("checkpoint_rounds"),
        wal_crash=payload.get("crash"),
    )
    for batch in batches:
        session.ingest(batch, validate=False)
    session.close()

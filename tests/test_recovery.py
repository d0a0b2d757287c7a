"""Tests for coordinator durability (``repro.dist.recovery``).

The load-bearing guarantee extends the dist suite's conformance
contract across a coordinator *crash*: kill the coordinator process at
any durability point — before a round's WAL append, after the append
but before the apply, or midway through a checkpoint — and
``DistributedSession(recover_from=dir)`` must come back byte-identical
to an uninterrupted run: same metrics, same per-site message counts,
same estimates (HYZ RNG state included), same serve-layer snapshot
epoch.  The chaos matrix drives all three crash points across both
transports and every counter backend.

Below the matrix sit the artifact-damage tests (a torn WAL tail
recovers to the last complete record; CRC/structural corruption raises
:class:`WalCorrupt`; a stale checkpoint ``meta.json`` raises a typed
error — a partial round is never applied), the WAL unit tests, and the
TCP bind/advertise + frame-cap/heartbeat session knobs.
"""

import json
import os
import struct

import numpy as np
import pytest

from dist_faults import (
    CRASH_POINTS,
    FAULT_EXIT_CODE,
    coordinator_crash,
    run_crashing_child,
)
from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.bn.repository import network_by_name
from repro.dist import (
    DistributedSession,
    RecoveryError,
    WalCorrupt,
    WriteAheadLog,
    load_recovery,
)
from repro.dist.messages import SiteAggregate
from repro.dist.recovery import (
    CHECKPOINT_NAME,
    STATE_NAME,
    WAL_MAGIC,
    WAL_NAME,
    recovery_stream,
)
from repro.errors import SessionError

# The chaos-matrix grid, sized for the spawn-heavy single-core CI box:
# 6 rounds of 50 events, a checkpoint every 2 applied rounds, and the
# crash at round 4 — so every injection point leaves both a committed
# checkpoint behind it and WAL rounds in front of it.
NET = "alarm"
K = 4
PROCS = 2
N_EVENTS = 300
CHUNK = 50
SEED = 7
CRASH_SEQ = 4
CHECKPOINT_ROUNDS = 2
BACKENDS = ("exact", "deterministic", "hyz")


def chaos_spec(backend: str) -> EstimatorSpec:
    return EstimatorSpec(
        NET, "nonuniform", eps=0.2, n_sites=K, seed=11,
        counter_backend=backend,
    )


def crash_payload(backend, transport, directory, *, crash,
                  checkpoint_rounds=CHECKPOINT_ROUNDS, fsync="always"):
    return {
        "spec": chaos_spec(backend).to_dict(),
        "procs": PROCS,
        "transport": transport,
        "dir": str(directory),
        "fsync": fsync,
        "checkpoint_rounds": checkpoint_rounds,
        "crash": crash,
        "stream": {"seed": SEED, "n_events": N_EVENTS, "chunk": CHUNK},
    }


@pytest.fixture(scope="module")
def chaos_net():
    return network_by_name(NET)


@pytest.fixture(scope="module")
def chaos_batches(chaos_net):
    return recovery_stream(chaos_net, n_events=N_EVENTS, chunk=CHUNK,
                           seed=SEED)


@pytest.fixture(scope="module")
def chaos_refs(chaos_net, chaos_batches):
    """Uninterrupted in-process reference, one per counter backend."""
    refs = {}
    for backend in BACKENDS:
        ref = MonitoringSession(chaos_spec(backend), network=chaos_net)
        for batch in chaos_batches:
            ref.ingest(batch, validate=False)
        refs[backend] = ref
    return refs


@pytest.fixture(scope="module")
def chaos_dist_epochs(chaos_net, chaos_batches, chaos_refs):
    """Final sync epoch of an *uninterrupted distributed* run per backend.

    The epoch advances once per message-*recording call*.  The HYZ bank
    makes the same calls in both runtimes (``tests/test_serve.py`` pins
    distributed epoch == in-process epoch for it), but the exact bank
    records an in-process dense batch in one call where the coordinator's
    per-site apply makes one per site aggregate — so epoch continuity
    across a crash is judged against an uninterrupted distributed run for
    every backend, not the in-process reference (whose metrics, per-site
    counts, and estimates the distributed runtime does match exactly).
    """
    epochs = {}
    for backend in BACKENDS:
        with DistributedSession(
            chaos_spec(backend), network=chaos_net, procs=PROCS
        ) as dist:
            for batch in chaos_batches:
                dist.ingest(batch, validate=False)
            dist.flush()
            assert dist.metrics() == chaos_refs[backend].metrics()
            epochs[backend] = dist.message_log.epoch
    return epochs


def sample_reports(seq: int) -> dict:
    """Two workers' worth of plausible WAL aggregates for round ``seq``."""
    return {
        0: [
            SiteAggregate(0, np.array([1, 4, 9], dtype=np.int64),
                          np.array([2, 1, 5], dtype=np.int64), 8),
            SiteAggregate(2, np.array([0], dtype=np.int64),
                          np.array([seq], dtype=np.int64), seq),
        ],
        1: [
            SiteAggregate(1, np.array([3, 7], dtype=np.int64),
                          np.array([1, 1], dtype=np.int64), 2),
        ],
    }


def append_rounds(path, seqs, *, fsync="off", partitioner=None):
    wal = WriteAheadLog(path, fsync=fsync)
    for seq in seqs:
        wal.append_round(seq, 50, seq - 1, partitioner, sample_reports(seq))
    wal.close()
    return wal


# ----------------------------------------------------------------------
# Write-ahead log unit tests
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_scan_round_trip(self, tmp_path):
        path = tmp_path / WAL_NAME
        state = {"kind": "uniform", "cursor": 17}
        wal = append_rounds(path, [1, 2], partitioner=state)
        assert wal.records_appended == 2
        assert wal.bytes_appended == path.stat().st_size
        records = WriteAheadLog.scan(path)
        assert [r.seq for r in records] == [1, 2]
        for record in records:
            assert record.m == 50
            assert record.epoch == record.seq - 1
            assert record.partitioner == state
            expected = sample_reports(record.seq)
            assert sorted(record.reports) == sorted(expected)
            for worker, aggs in expected.items():
                got = record.reports[worker]
                assert [a.site for a in got] == [a.site for a in aggs]
                for g, a in zip(got, aggs):
                    assert np.array_equal(g.counter_ids, a.counter_ids)
                    assert np.array_equal(g.counts, a.counts)

    def test_scan_missing_or_empty(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_bytes(b"")
        assert WriteAheadLog.scan(path) == []

    def test_truncate_through_keeps_later_records(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, fsync="off")
        for seq in (1, 2, 3, 4):
            wal.append_round(seq, 50, seq - 1, None, sample_reports(seq))
        wal.truncate_through(2)
        wal.append_round(5, 50, 4, None, sample_reports(5))
        wal.close()
        assert [r.seq for r in WriteAheadLog.scan(path)] == [3, 4, 5]

    def test_truncate_through_none_drops_everything(self, tmp_path):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, fsync="off")
        wal.append_round(1, 50, 0, None, sample_reports(1))
        wal.truncate_through(None)
        wal.close()
        assert path.stat().st_size == 0
        assert WriteAheadLog.scan(path) == []

    def test_fsync_policies(self, tmp_path):
        always = WriteAheadLog(tmp_path / "a.log", fsync="always")
        for seq in (1, 2, 3):
            always.append_round(seq, 50, seq - 1, None, sample_reports(seq))
        assert always.fsyncs == 3
        always.close()

        interval = WriteAheadLog(tmp_path / "i.log", fsync="interval",
                                 fsync_interval=2)
        for seq in (1, 2, 3):
            interval.append_round(seq, 50, seq - 1, None, sample_reports(seq))
        assert interval.fsyncs == 1  # after the 2nd append
        interval.close()  # close syncs the straggler
        assert interval.fsyncs == 2

        off = WriteAheadLog(tmp_path / "o.log", fsync="off")
        for seq in (1, 2, 3):
            off.append_round(seq, 50, seq - 1, None, sample_reports(seq))
        off.close()
        assert off.fsyncs == 0
        # All three policies persist identical records.
        for name in ("a.log", "i.log", "o.log"):
            assert [r.seq for r in WriteAheadLog.scan(tmp_path / name)] == \
                [1, 2, 3]

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(RecoveryError, match="fsync policy"):
            WriteAheadLog(tmp_path / WAL_NAME, fsync="sometimes")
        with pytest.raises(RecoveryError, match="fsync_interval"):
            WriteAheadLog(tmp_path / WAL_NAME, fsync="interval",
                          fsync_interval=0)


class TestWalDamage:
    """Structural damage raises; a torn tail is where the log stops."""

    def _wal(self, tmp_path):
        path = tmp_path / WAL_NAME
        append_rounds(path, [1, 2, 3])
        return path, path.read_bytes()

    def test_torn_tail_partial_header(self, tmp_path):
        path, blob = self._wal(tmp_path)
        path.write_bytes(blob[:len(blob) - len(blob) // 3] )
        # Cutting into the last record's payload (or header) drops only
        # that record; everything before it still replays.
        records = WriteAheadLog.scan(path)
        assert [r.seq for r in records] == [1, 2]

    def test_torn_tail_partial_payload(self, tmp_path):
        path, blob = self._wal(tmp_path)
        path.write_bytes(blob[:-1])
        assert [r.seq for r in WriteAheadLog.scan(path)] == [1, 2]

    def test_crc_corruption_raises(self, tmp_path):
        path, blob = self._wal(tmp_path)
        # Flip one byte deep inside the final record's payload.
        damaged = bytearray(blob)
        damaged[-2] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with pytest.raises(WalCorrupt, match="CRC"):
            WriteAheadLog.scan(path)

    def test_bad_magic_raises(self, tmp_path):
        path, blob = self._wal(tmp_path)
        path.write_bytes(b"XX" + blob[2:])
        with pytest.raises(WalCorrupt, match="magic"):
            WriteAheadLog.scan(path)

    def test_unsupported_version_raises(self, tmp_path):
        path, blob = self._wal(tmp_path)
        damaged = bytearray(blob)
        damaged[2] = 99  # version byte of the first header
        path.write_bytes(bytes(damaged))
        with pytest.raises(WalCorrupt, match="version"):
            WriteAheadLog.scan(path)

    def test_implausible_length_raises(self, tmp_path):
        path = tmp_path / WAL_NAME
        header = struct.Struct("<2sBBII")
        path.write_bytes(header.pack(WAL_MAGIC, 1, 1, 2 ** 31, 0)
                         + b"\x00" * 64)
        with pytest.raises(WalCorrupt, match="limit"):
            WriteAheadLog.scan(path, max_bytes=1 << 20)


# ----------------------------------------------------------------------
# Durable session: happy path and recovery-directory damage
# ----------------------------------------------------------------------
class TestDurableSession:
    def test_clean_run_round_trips_through_recovery(
        self, tmp_path, chaos_net, chaos_batches, chaos_refs
    ):
        wal_dir = tmp_path / "durable"
        with DistributedSession(
            chaos_spec("hyz"), network=chaos_net, procs=PROCS,
            wal_dir=str(wal_dir), checkpoint_rounds=CHECKPOINT_ROUNDS,
        ) as dist:
            for batch in chaos_batches:
                dist.ingest(batch, validate=False)
            dist.flush()
            stats = dist.durability_stats()
            assert stats["wal_records"] == N_EVENTS // CHUNK
            assert stats["checkpoints"] == (N_EVENTS // CHUNK) \
                // CHECKPOINT_ROUNDS
        # A clean close checkpoints, so the WAL is empty...
        assert (wal_dir / WAL_NAME).stat().st_size == 0
        # ...and recovery replays nothing but lands on the same state.
        inner, incarnation, info = load_recovery(wal_dir, network=chaos_net)
        assert info["replayed_rounds"] == 0
        assert incarnation == 1
        ref = chaos_refs["hyz"]
        assert inner.metrics() == ref.metrics()
        assert np.array_equal(inner.estimates(), ref.estimates())

    def test_plain_session_reports_no_durability(self, chaos_net):
        with DistributedSession(
            chaos_spec("exact"), network=chaos_net, procs=PROCS
        ) as dist:
            assert dist.durability_stats() == {}

    def test_wal_crash_requires_wal_dir(self, chaos_net):
        with pytest.raises(SessionError, match="wal_crash requires wal_dir"):
            DistributedSession(
                chaos_spec("exact"), network=chaos_net, procs=PROCS,
                wal_crash=coordinator_crash(1, "pre-append"),
            )

    def test_recover_from_excludes_spec(self, tmp_path, chaos_net):
        with pytest.raises(SessionError, match="recover_from"):
            DistributedSession(
                chaos_spec("exact"), network=chaos_net,
                recover_from=str(tmp_path),
            )

    def test_recover_from_non_recovery_dir(self, tmp_path):
        with pytest.raises(RecoveryError, match="no coordinator state"):
            load_recovery(tmp_path)

    def test_corrupt_state_file(self, tmp_path):
        (tmp_path / STATE_NAME).write_text("{not json")
        with pytest.raises(RecoveryError, match="not valid JSON"):
            load_recovery(tmp_path)

    def test_wrong_state_schema(self, tmp_path):
        (tmp_path / STATE_NAME).write_text(
            json.dumps({"schema": "something-else", "spec": {}})
        )
        with pytest.raises(RecoveryError, match="schema"):
            load_recovery(tmp_path)


class TestCrashedDirectoryDamage:
    """Damage on top of a *real* crashed coordinator's directory."""

    @pytest.fixture()
    def crashed_dir(self, tmp_path):
        # post-append at round 4, no periodic checkpoints: the WAL holds
        # rounds 1..4 and the checkpoint directory stays empty.
        directory = tmp_path / "crashed"
        payload = crash_payload(
            "hyz", "queue", directory,
            crash=coordinator_crash(CRASH_SEQ, "post-append"),
            checkpoint_rounds=None,
        )
        assert run_crashing_child(payload) == FAULT_EXIT_CODE
        return directory

    def test_torn_wal_tail_recovers_prefix(
        self, crashed_dir, chaos_net, chaos_batches
    ):
        wal = crashed_dir / WAL_NAME
        blob = wal.read_bytes()
        complete = WriteAheadLog.scan(wal)
        assert [r.seq for r in complete] == [1, 2, 3, 4]
        wal.write_bytes(blob[:-3])  # tear into round 4's record
        inner, _, info = load_recovery(crashed_dir, network=chaos_net)
        assert info["replayed_rounds"] == 3
        ref = MonitoringSession(chaos_spec("hyz"), network=chaos_net)
        for batch in chaos_batches[:3]:
            ref.ingest(batch, validate=False)
        assert inner.metrics() == ref.metrics()
        assert np.array_equal(inner.estimates(), ref.estimates())

    def test_crc_corrupt_wal_record_refuses_recovery(
        self, crashed_dir, chaos_net
    ):
        wal = crashed_dir / WAL_NAME
        blob = bytearray(wal.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # deep inside a middle record
        wal.write_bytes(bytes(blob))
        with pytest.raises(WalCorrupt):
            load_recovery(crashed_dir, network=chaos_net)

    def test_non_contiguous_wal_refuses_recovery(
        self, crashed_dir, chaos_net
    ):
        # Drop round 1 from the log while no checkpoint covers it.
        wal = WriteAheadLog(crashed_dir / WAL_NAME, fsync="off")
        wal.truncate_through(1)
        wal.close()
        with pytest.raises(RecoveryError, match="not contiguous"):
            load_recovery(crashed_dir, network=chaos_net)

    def test_stale_checkpoint_meta_refuses_recovery(self, tmp_path, chaos_net):
        # A checkpointing run this time, so the bundle exists...
        directory = tmp_path / "crashed-ckpt"
        payload = crash_payload(
            "hyz", "queue", directory,
            crash=coordinator_crash(CRASH_SEQ, "post-append"),
        )
        assert run_crashing_child(payload) == FAULT_EXIT_CODE
        checkpoint = directory / CHECKPOINT_NAME
        arrays = sorted(checkpoint.glob("arrays-*.npz"))
        assert arrays, "checkpoint bundle should hold an arrays file"
        # ...then its meta.json goes stale: the arrays it names vanish.
        for path in arrays:
            os.remove(path)
        with pytest.raises(SessionError):
            load_recovery(directory, network=chaos_net)


# ----------------------------------------------------------------------
# The chaos matrix
# ----------------------------------------------------------------------
class TestChaosMatrix:
    """Crash point x transport x counter backend, byte-identical always."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("transport", ["queue", "tcp"])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_recover_conformance(
        self, point, transport, backend, tmp_path,
        chaos_net, chaos_batches, chaos_refs, chaos_dist_epochs,
    ):
        directory = tmp_path / "wal"
        payload = crash_payload(
            backend, transport, directory,
            crash=coordinator_crash(CRASH_SEQ, point),
        )
        assert run_crashing_child(payload) == FAULT_EXIT_CODE, (
            f"child must die at {point} of round {CRASH_SEQ}"
        )
        recovered = DistributedSession(
            recover_from=str(directory), network=chaos_net,
            procs=PROCS, transport=transport,
        )
        ref = chaos_refs[backend]
        try:
            info = recovered.recovery_info
            assert info["incarnation"] == 1
            assert recovered.inner.events_seen % CHUNK == 0
            resume_at = recovered.inner.events_seen // CHUNK
            # The crash point dictates how much the WAL replays: a
            # pre-append crash loses the in-flight round; the other two
            # have it durable before dying.
            assert resume_at == (
                CRASH_SEQ - 1 if point == "pre-append" else CRASH_SEQ
            )
            assert info["replayed_rounds"] == resume_at - (
                info["checkpoint_seq"] or 0
            )
            for batch in chaos_batches[resume_at:]:
                recovered.ingest(batch, validate=False)
            recovered.flush()
            assert recovered.metrics() == ref.metrics()
            assert np.array_equal(
                recovered.message_log.site_messages,
                ref.message_log.site_messages,
            )
            assert np.array_equal(recovered.estimates(), ref.estimates())
            # Serve-layer continuity: the recovered coordinator's sync
            # epoch — and therefore the epoch stamped on every
            # ModelSnapshot built over it — matches an uninterrupted
            # distributed run's exactly (see chaos_dist_epochs).
            assert recovered.message_log.epoch == \
                chaos_dist_epochs[backend]
            assert recovered.serve().snapshot().epoch == \
                chaos_dist_epochs[backend]
        finally:
            recovered.close()


# ----------------------------------------------------------------------
# TCP session knobs (bind/advertise, frame cap, heartbeat)
# ----------------------------------------------------------------------
class TestSessionNetworkKnobs:
    def test_bind_all_interfaces_advertise_loopback(
        self, chaos_net, chaos_batches, chaos_refs
    ):
        with DistributedSession(
            chaos_spec("exact"), network=chaos_net, procs=PROCS,
            transport="tcp", bind_address="0.0.0.0",
            advertise_address="127.0.0.1",
        ) as dist:
            listener = dist._listener
            assert listener.bound_address[0] == "0.0.0.0"
            assert listener.address == ("127.0.0.1",
                                        listener.bound_address[1])
            for batch in chaos_batches[:2]:
                dist.ingest(batch, validate=False)
            dist.flush()
            assert dist.events_seen == 2 * CHUNK

    def test_frame_cap_and_heartbeat_reach_the_listener(
        self, chaos_net, chaos_batches
    ):
        with DistributedSession(
            chaos_spec("exact"), network=chaos_net, procs=PROCS,
            transport="tcp", max_frame_bytes=1 << 20,
            heartbeat_timeout=30.0,
        ) as dist:
            assert dist._listener.max_frame_bytes == 1 << 20
            dist.ingest(chaos_batches[0], validate=False)
            dist.flush()
            assert dist.events_seen == CHUNK

    @pytest.mark.parametrize("kwargs", [
        {"bind_address": "0.0.0.0"},
        {"advertise_address": "127.0.0.1"},
        {"max_frame_bytes": 1 << 20},
        {"heartbeat_timeout": 10.0},
    ])
    def test_tcp_only_knobs_rejected_on_queue_transport(
        self, chaos_net, kwargs
    ):
        with pytest.raises(SessionError, match="tcp"):
            DistributedSession(
                chaos_spec("exact"), network=chaos_net, procs=PROCS,
                **kwargs,
            )

    @pytest.mark.parametrize("kwargs", [
        {"max_frame_bytes": 0},
        {"heartbeat_timeout": 0.0},
    ])
    def test_non_positive_knobs_rejected(self, chaos_net, kwargs):
        with pytest.raises(SessionError, match="positive"):
            DistributedSession(
                chaos_spec("exact"), network=chaos_net, procs=PROCS,
                transport="tcp", **kwargs,
            )

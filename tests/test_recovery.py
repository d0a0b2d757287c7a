"""Tests for coordinator durability (``repro.dist.recovery``).

The load-bearing guarantee extends the dist suite's conformance
contract across a coordinator *crash*: kill the coordinator process at
any durability point — before a round's WAL append, after the append
but before the apply, or midway through a checkpoint — and
``DistributedSession(recover_from=dir)`` must come back byte-identical
to an uninterrupted run: same metrics, same per-site message counts,
same estimates (HYZ RNG state included), same serve-layer snapshot
epoch.  The chaos matrix drives all three crash points across every
counter backend.

Below the matrix sit the artifact-damage tests (a torn WAL tail
recovers to the last complete record; CRC/structural corruption raises
:class:`WalCorrupt`; a stale checkpoint ``meta.json`` raises a typed
error — a partial round is never applied), the WAL unit tests, and the
bind/advertise + frame-cap/heartbeat session knobs.
"""

import gc
import json
import os
import shutil
import struct
import warnings
import zipfile
import zlib

import numpy as np
import pytest

from dist_faults import (
    CRASH_POINTS,
    FAULT_EXIT_CODE,
    coordinator_crash,
    kill_after,
    run_crashing_child,
)
from ingest_oracle import assert_states_equal, reference_apply_round
from test_dist import assert_conformant
from repro.api.session import MonitoringSession
from repro.api.spec import EstimatorSpec
from repro.bn.repository import network_by_name
from repro.dist import (
    DistributedSession,
    RecoveryError,
    SiteShard,
    WalCorrupt,
    WriteAheadLog,
    load_recovery,
)
from repro.dist.messages import SiteAggregate
from repro.dist.recovery import (
    CHECKPOINT_NAME,
    DurableCoordinator,
    STATE_NAME,
    WAL_MAGIC,
    WAL_NAME,
    recovery_stream,
)
from repro.errors import ExecutionError, SessionError

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


def crash_payload(backend, directory, *, crash,
                  checkpoint_rounds=CHECKPOINT_ROUNDS, fsync="always"):
    return {
        "spec": chaos_spec(backend).to_dict(),
        "procs": PROCS,
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

    @pytest.mark.parametrize("fsync", ["always", "interval", "off"])
    def test_reset_empties_the_open_log_in_place(self, tmp_path, fsync):
        path = tmp_path / WAL_NAME
        wal = WriteAheadLog(path, fsync=fsync, fsync_interval=2)
        for seq in (1, 2, 3):
            wal.append_round(seq, 50, seq - 1, None, sample_reports(seq))
        inode = path.stat().st_ino
        wal.truncate_through(None)
        assert path.stat().st_size == 0
        assert path.stat().st_ino == inode  # no temp file, no rename
        size = wal.append_round(4, 50, 3, None, sample_reports(4))
        wal.close()
        assert path.stat().st_size == size  # the append landed at offset 0
        assert path.read_bytes()[:len(WAL_MAGIC)] == WAL_MAGIC
        assert [r.seq for r in WriteAheadLog.scan(path)] == [4]

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

    @pytest.mark.parametrize("meta", [
        [1, 50, 0],
        {"m": 50, "epoch": 0, "workers": []},
        {"seq": "1", "m": 50, "epoch": 0, "workers": []},
    ], ids=["list", "no_seq", "string_seq"])
    def test_record_meta_without_integer_fields_raises(self, tmp_path, meta):
        meta_bytes = json.dumps(meta).encode()
        payload = struct.pack("<I", len(meta_bytes)) + meta_bytes
        path = tmp_path / WAL_NAME
        path.write_bytes(struct.pack(
            "<2sBBII", WAL_MAGIC, 1, 1, len(payload), zlib.crc32(payload)
        ) + payload)
        with pytest.raises(WalCorrupt, match="integer seq"):
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
        # ...and the checkpoint's arrays are stored, not deflated.
        (arrays,) = (wal_dir / CHECKPOINT_NAME).glob("arrays-*.npz")
        with zipfile.ZipFile(arrays) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}
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

    @pytest.mark.parametrize("bad, error", [
        ({"wal_crash": coordinator_crash(1, "pre-append")}, SessionError),
        ({"wal_fsync": "bogus"}, RecoveryError),
        ({"checkpoint_rounds": 0}, RecoveryError),
        # Past the argument checks: the WAL is open when the bind fails.
        ({"bind_address": "192.0.2.1"}, OSError),
    ], ids=["wal_crash_without_wal_dir", "bogus_fsync",
            "zero_checkpoint_rounds", "unbindable_address"])
    def test_failed_construction_leaks_nothing(
        self, tmp_path, chaos_net, bad, error
    ):
        wal_dir = tmp_path / "durable"
        wal_dir.mkdir()
        (wal_dir / STATE_NAME).write_text("a previous run's state")
        kwargs = dict(bad)
        if "wal_crash" not in kwargs:
            kwargs["wal_dir"] = str(wal_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error):
                DistributedSession(
                    chaos_spec("exact"), network=chaos_net, procs=PROCS,
                    **kwargs,
                )
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        if "bind_address" not in kwargs:
            # Refused before the directory was touched.
            assert (wal_dir / STATE_NAME).read_text() \
                == "a previous run's state"

    def test_give_up_recovers_the_last_applied_round(
        self, tmp_path, chaos_net, chaos_batches
    ):
        # Worker 0 dies before its third report, every incarnation, so
        # the session gives up in round 3 with rounds 1-2 applied.
        wal_dir = tmp_path / "durable"
        spec = chaos_spec("hyz")
        dist = DistributedSession(
            spec, network=chaos_net, procs=PROCS, wal_dir=str(wal_dir),
            max_respawns=0, worker_faults={0: kill_after(2)},
        )
        with pytest.raises(ExecutionError, match="giving up"):
            for batch in chaos_batches:
                dist.ingest(batch, validate=False)
        dist.close()
        assert not any(h.process.is_alive() for h in dist._workers)
        # No closing checkpoint: the WAL still holds both rounds.
        assert not (wal_dir / CHECKPOINT_NAME / "meta.json").exists()
        assert [r.seq for r in WriteAheadLog.scan(wal_dir / WAL_NAME)] \
            == [1, 2]
        ref = MonitoringSession(spec, network=chaos_net)
        recovered = DistributedSession(
            recover_from=str(wal_dir), network=chaos_net, procs=PROCS,
        )
        try:
            assert recovered.recovery_info["applied_seq"] == 2
            for batch in chaos_batches:
                if ref.events_seen >= 2 * CHUNK:
                    recovered.ingest(batch, validate=False)
                ref.ingest(batch, validate=False)
            assert_conformant(ref, recovered)
        finally:
            recovered.close()

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


class TestParentWalCompatibility:
    def test_per_site_walk_wal_replays_byte_identically(
        self, tmp_path, chaos_net, chaos_batches, chaos_refs
    ):
        """A WAL whose record epochs come from the per-site
        ``bulk_add_site`` apply (what the coordinator did before
        ``bulk_add_sites``) replays through the whole-round apply with
        every epoch check passing, onto the uninterrupted state."""
        spec = chaos_spec("exact")
        inner = MonitoringSession(spec, network=chaos_net)
        durable = DurableCoordinator(tmp_path, inner, fsync="off")
        shards = [SiteShard(spec, range(0, K // 2), network=chaos_net),
                  SiteShard(spec, range(K // 2, K), network=chaos_net)]
        for seq, batch in enumerate(chaos_batches, start=1):
            sites = inner.partitioner.assign(batch.shape[0])
            got = {}
            for worker, shard in enumerate(shards):
                mask = np.isin(sites, shard.sites)
                got[worker] = shard.encode(seq, batch[mask], sites[mask])
            record = {"m": batch.shape[0], "got": got,
                      "partitioner": inner.partitioner.state_dict()}
            durable.log_round(seq, record)
            reference_apply_round(inner.estimator.bank, got)
            inner.estimator.events_seen += record["m"]
        durable.wal.close()  # a crash: no closing checkpoint

        recovered, _, info = load_recovery(tmp_path, network=chaos_net)
        assert info["replayed_rounds"] == len(chaos_batches)
        ref = chaos_refs["exact"]
        # One epoch per non-silent site per round, as the walk recorded.
        assert ref.message_log.epoch == inner.message_log.epoch
        for live in (recovered, inner):
            assert_states_equal(ref.estimator.bank.state_dict(),
                                live.estimator.bank.state_dict())
            assert_states_equal(ref.message_log.state_dict(),
                                live.message_log.state_dict())
            assert_states_equal(ref.partitioner.state_dict(),
                                live.partitioner.state_dict())


class TestUnresetWal:
    def test_records_covered_by_the_checkpoint_are_skipped(
        self, tmp_path, chaos_net, chaos_batches, chaos_refs
    ):
        """A checkpoint whose WAL reset never reached the disk: the log
        still holds every round the bundle covers, and recovery lands on
        the same state as from the empty log the reset would leave."""
        spec = chaos_spec("hyz")
        inner = MonitoringSession(spec, network=chaos_net)
        durable = DurableCoordinator(tmp_path / "unreset", inner, fsync="off")
        shards = [SiteShard(spec, range(0, K // 2), network=chaos_net),
                  SiteShard(spec, range(K // 2, K), network=chaos_net)]
        for seq, batch in enumerate(chaos_batches, start=1):
            sites = inner.partitioner.assign(batch.shape[0])
            got = {}
            for worker, shard in enumerate(shards):
                mask = np.isin(sites, shard.sites)
                got[worker] = shard.encode(seq, batch[mask], sites[mask])
            record = {"m": batch.shape[0], "got": got,
                      "partitioner": inner.partitioner.state_dict()}
            durable.log_round(seq, record)
            reference_apply_round(inner.estimator.bank, got)
            inner.estimator.events_seen += record["m"]
            durable.after_apply(seq, record)
        wal_path = durable.directory / WAL_NAME
        unreset = wal_path.read_bytes()
        durable.checkpoint()
        durable.wal.close()
        assert wal_path.stat().st_size == 0
        shutil.copytree(durable.directory, tmp_path / "reset")
        wal_path.write_bytes(unreset)
        assert [r.seq for r in WriteAheadLog.scan(wal_path)] == \
            list(range(1, len(chaos_batches) + 1))

        recovered = {}
        for name in ("reset", "unreset"):
            recovered[name] = load_recovery(tmp_path / name,
                                            network=chaos_net)
        (reset, _, reset_info), (skipped, _, skipped_info) = (
            recovered["reset"], recovered["unreset"])
        assert skipped_info == reset_info
        assert skipped_info["replayed_rounds"] == 0
        ref = chaos_refs["hyz"]
        for live in (reset, skipped):
            assert_states_equal(ref.estimator.bank.state_dict(),
                                live.estimator.bank.state_dict())
            assert_states_equal(ref.message_log.state_dict(),
                                live.message_log.state_dict())
            assert_states_equal(ref.partitioner.state_dict(),
                                live.partitioner.state_dict())


class TestCrashedDirectoryDamage:
    """Damage on top of a *real* crashed coordinator's directory."""

    @pytest.fixture()
    def crashed_dir(self, tmp_path):
        # post-append at round 4, no periodic checkpoints: the WAL holds
        # rounds 1..4 and the checkpoint directory stays empty.
        directory = tmp_path / "crashed"
        payload = crash_payload(
            "hyz", directory,
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
            "hyz", directory,
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
    """Crash point x counter backend, byte-identical always."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_recover_conformance(
        self, point, backend, tmp_path,
        chaos_net, chaos_batches, chaos_refs,
    ):
        directory = tmp_path / "wal"
        payload = crash_payload(
            backend, directory,
            crash=coordinator_crash(CRASH_SEQ, point),
        )
        assert run_crashing_child(payload) == FAULT_EXIT_CODE, (
            f"child must die at {point} of round {CRASH_SEQ}"
        )
        recovered = DistributedSession(
            recover_from=str(directory), network=chaos_net,
            procs=PROCS,
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
            # ModelSnapshot built over it — matches the uninterrupted
            # in-process run's exactly, as does every other tally.
            assert_states_equal(
                ref.message_log.state_dict(),
                recovered.message_log.state_dict(),
            )
            assert recovered.serve().snapshot().epoch == \
                ref.message_log.epoch
        finally:
            recovered.close()


# ----------------------------------------------------------------------
# Session network knobs (bind/advertise, frame cap, heartbeat)
# ----------------------------------------------------------------------
class TestSessionNetworkKnobs:
    def test_bind_all_interfaces_advertise_loopback(
        self, chaos_net, chaos_batches, chaos_refs
    ):
        with DistributedSession(
            chaos_spec("exact"), network=chaos_net, procs=PROCS,
            bind_address="0.0.0.0",
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
            max_frame_bytes=1 << 20,
            heartbeat_timeout=30.0,
        ) as dist:
            assert dist._listener.max_frame_bytes == 1 << 20
            dist.ingest(chaos_batches[0], validate=False)
            dist.flush()
            assert dist.events_seen == CHUNK

    @pytest.mark.parametrize("kwargs", [
        {"max_frame_bytes": 0},
        {"heartbeat_timeout": 0.0},
    ])
    def test_non_positive_knobs_rejected(self, chaos_net, kwargs):
        with pytest.raises(SessionError, match="positive"):
            DistributedSession(
                chaos_spec("exact"), network=chaos_net, procs=PROCS,
                **kwargs,
            )

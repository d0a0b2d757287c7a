"""Tests for the TCP transport subsystem (``repro.net``).

Three layers, mirroring the package:

1. **Wire format** (``net/wire.py``): every ``dist/messages.py`` frame
   round-trips byte-identically; partial reads reassemble; zero-length
   payloads work; oversized frames, CRC mismatches and retired frame
   kinds raise *typed* errors synchronously (never hang a reader).
2. **Endpoints** (``net/transport.py`` / ``net/endpoint.py``): the
   handshake (token, incarnation refusal), heartbeats, backpressure
   blocking with ``blocked_sends`` accounting in either direction of a
   worker's one connection, severed
   connections, and a SIGKILL-style half-written frame — all on a real
   loopback socket pair driven single-coordinator-threaded, the way the
   production event loop runs.
3. **Network faults under a real session**: severed connections
   mid-round with reconnect + unreported-round replay, asserting
   byte-identical results against the in-process reference session.
   TCP is the runtime's only wire, so the conformance matrix, worker
   kills (injected and SIGKILL), backpressure and the executor
   integration in ``tests/test_dist.py`` all run over it too.
"""

import json
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from dist_faults import (
    DieOnceMarker,
    discard_frames,
    drop_sends,
    merge,
    sever_after,
    sockbuf,
)
from repro.dist import DistributedSession, TransportClosed
from repro.dist.messages import (
    IngestBatch,
    Shutdown,
    SiteAggregate,
    ValueReport,
)
from repro.dist.recovery import WAL_MAGIC, WAL_VERSION, WalCorrupt, WriteAheadLog
from repro.dist.transport import POLL_INTERVAL
from repro.net import (
    ChecksumError,
    CoordinatorChannel,
    FrameDecoder,
    FrameTooLarge,
    HandshakeRefused,
    Hello,
    HelloAck,
    Listener,
    Ping,
    SendQueue,
    SocketTransport,
    WireError,
    decode_payload,
    encode_frame,
    make_hello,
)
from repro.net.wire import HEADER, MAGIC, VERSION
from test_dist import batches_for, run_pair, spec_for


def encoded(frame, **kwargs) -> bytes:
    return b"".join(encode_frame(frame, **kwargs))


def small(seq: int = 1) -> ValueReport:
    """A tiny payload frame, told apart by ``seq``."""
    return ValueReport(0, seq, [], None)


def sample_frames():
    """One of every dist/messages.py frame (plus the control frames)."""
    rng = np.random.default_rng(7)
    data = rng.integers(0, 4, size=(12, 5), dtype=np.int64)
    site_ids = rng.integers(0, 3, size=12, dtype=np.int64)
    aggregates = [
        SiteAggregate(
            0, np.array([2, 5, 9], dtype=np.int64),
            np.array([1, 4, 2], dtype=np.int64), 7,
        ),
        SiteAggregate(
            2, np.array([1], dtype=np.int64),
            np.array([5], dtype=np.int64), 5,
        ),
    ]
    state = {"kind": "site-shard", "sites": [0, 2], "events_seen": 12,
             "next_seq": 3}
    return [
        IngestBatch(1, data, site_ids),
        ValueReport(0, 1, aggregates, state),
        ValueReport(1, 2, [], None),
        Shutdown(),
        Hello(1, 2, "deadbeef", coordinator=3),
        HelloAck(False, "stale incarnation"),
        Ping(),
    ]


def assert_frames_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, IngestBatch):
        assert a.seq == b.seq
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.site_ids, b.site_ids)
        assert a.data.dtype == b.data.dtype
    elif isinstance(a, ValueReport):
        assert (a.worker, a.seq, a.state) == (b.worker, b.seq, b.state)
        assert len(a.aggregates) == len(b.aggregates)
        for x, y in zip(a.aggregates, b.aggregates):
            assert (x.site, x.n_events) == (y.site, y.n_events)
            assert np.array_equal(x.counter_ids, y.counter_ids)
            assert np.array_equal(x.counts, y.counts)
    elif isinstance(a, Hello):
        assert (a.worker, a.incarnation, a.mac, a.coordinator) == (
            b.worker, b.incarnation, b.mac, b.coordinator
        )
    elif isinstance(a, HelloAck):
        assert (a.ok, a.reason) == (b.ok, b.reason)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    @pytest.mark.parametrize(
        "frame", sample_frames(), ids=lambda f: type(f).__name__
    )
    def test_every_frame_round_trips_byte_identically(self, frame):
        blob = encoded(frame)
        decoder = FrameDecoder()
        frames = decoder.feed(blob)
        assert len(frames) == 1
        assert_frames_equal(frames[0], frame)
        # Byte identity: re-encoding the decoded frame reproduces the
        # original stream exactly (dtype strings, meta order, arrays).
        assert encoded(frames[0]) == blob

    def test_zero_length_payload_frames(self):
        for frame in (Shutdown(), Ping()):
            blob = encoded(frame)
            assert len(blob) == 12  # header only: truly empty payload
            (out,) = FrameDecoder().feed(blob)
            assert type(out) is type(frame)

    def test_partial_reads_reassemble(self):
        frames = sample_frames()
        blob = b"".join(encoded(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(blob), 7):  # 7-byte reads split every header
            out.extend(decoder.feed(blob[i:i + 7]))
        assert len(out) == len(frames)
        for got, want in zip(out, frames):
            assert_frames_equal(got, want)
        assert decoder.frames_decoded == len(frames)
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_feed(self):
        frames = sample_frames()
        blob = b"".join(encoded(f) for f in frames)
        out = FrameDecoder().feed(blob)
        assert [type(f) for f in out] == [type(f) for f in frames]

    def test_oversized_frame_raises_on_encode(self):
        batch = IngestBatch(1, np.zeros((100, 10), np.int64),
                            np.zeros(100, np.int64))
        with pytest.raises(FrameTooLarge, match="frame limit"):
            encode_frame(batch, max_bytes=64)

    def test_oversized_frame_raises_on_decode_not_hangs(self):
        batch = IngestBatch(1, np.zeros((100, 10), np.int64),
                            np.zeros(100, np.int64))
        decoder = FrameDecoder(max_bytes=64)
        with pytest.raises(FrameTooLarge, match="limit"):
            decoder.feed(encoded(batch))
        # Poisoned: the stream position is unrecoverable.
        with pytest.raises(WireError, match="reconnect"):
            decoder.feed(b"")

    def test_crc_mismatch_raises_typed_error(self):
        blob = bytearray(encoded(small()))
        blob[-1] ^= 0xFF  # flip one payload byte
        with pytest.raises(ChecksumError, match="CRC"):
            FrameDecoder().feed(bytes(blob))

    def test_bad_magic_raises(self):
        with pytest.raises(WireError, match="magic"):
            FrameDecoder().feed(b"XX" + b"\x00" * 10)

    def test_bad_version_raises(self):
        blob = bytearray(encoded(Ping()))
        blob[2] = 9
        with pytest.raises(WireError, match="version"):
            FrameDecoder().feed(bytes(blob))

    def test_unknown_frame_type_raises_on_encode(self):
        with pytest.raises(WireError, match="not a wire frame"):
            encode_frame(object())

    def test_unknown_kind_byte_raises_on_decode(self):
        with pytest.raises(WireError, match="unknown frame kind"):
            decode_payload(200, bytearray())

    @pytest.mark.parametrize("kind, meta", [
        (3, {"seq": 1, "rounds": 1}),
        (4, {"worker": 0, "acked": 1}),
    ], ids=["kind3", "kind4"])
    def test_retired_round_sync_kinds_are_refused(self, kind, meta):
        # Kinds 3 and 4 carried the removed round-sync exchange; a
        # CRC-valid frame of either is now an unknown kind.
        decoder = FrameDecoder()
        with pytest.raises(WireError, match=f"unknown frame kind {kind}"):
            decoder.feed(raw_frame(kind, meta))
        with pytest.raises(WireError, match="reconnect"):
            decoder.feed(encoded(Ping()))

    def test_truncated_payload_raises(self):
        blob = encoded(IngestBatch(1, np.arange(8, dtype=np.int64).reshape(2, 4),
                                   np.zeros(2, np.int64)))
        header, payload = blob[:12], bytearray(blob[12:-8])
        with pytest.raises(WireError, match="overruns"):
            decode_payload(1, payload)

    def test_decoded_arrays_are_zero_copy_views(self):
        batch = IngestBatch(5, np.arange(20, dtype=np.int64).reshape(4, 5),
                            np.arange(4, dtype=np.int64))
        blob = encoded(batch)
        payload = bytearray(blob[12:])
        out = decode_payload(1, payload)
        backing = np.frombuffer(payload, dtype=np.uint8)
        assert np.shares_memory(out.data, backing)
        assert np.shares_memory(out.site_ids, backing)

    def test_empty_arrays_round_trip(self):
        batch = IngestBatch(
            1, np.empty((0, 5), np.int64), np.empty(0, np.int64)
        )
        (out,) = FrameDecoder().feed(encoded(batch))
        assert out.data.shape == (0, 5)
        assert out.site_ids.shape == (0,)


def raw_frame(kind: int, meta, body: bytes = b"") -> bytes:
    """A CRC-valid frame of ``kind`` with arbitrary JSON ``meta``."""
    meta_bytes = json.dumps(meta).encode("utf-8")
    payload = struct.pack("<I", len(meta_bytes)) + meta_bytes + body
    return HEADER.pack(MAGIC, VERSION, kind, len(payload),
                       zlib.crc32(payload)) + payload


_I8 = {"dtype": "<i8", "shape": [1]}


def _ingest(data_spec):
    """IngestBatch meta with ``data_spec`` for the data array."""
    return {"seq": 1, "arrays": [data_spec, _I8]}


def _report(aggregates, n_arrays):
    return {"worker": 0, "seq": 1, "state": None, "aggregates": aggregates,
            "arrays": [_I8] * n_arrays}


#: CRC-valid frames whose meta no frame can be rebuilt from:
#: ``(kind byte, meta, array bytes, the error it must raise)``.
BAD_FRAMES = {
    "object_dtype": (1, _ingest({"dtype": "|O", "shape": [1]}), bytes(16),
                     "not a plain numeric"),
    "unknown_dtype": (1, _ingest({"dtype": "zz", "shape": [1]}), bytes(16),
                      "not a dtype"),
    "structured_dtype": (
        1, _ingest({"dtype": "<i8,<i8", "shape": [1]}), bytes(24),
        "not a plain numeric"),
    "dtype_not_string": (1, _ingest({"dtype": 8, "shape": [1]}), bytes(16),
                         "no dtype string"),
    "string_shape": (1, _ingest({"dtype": "<i8", "shape": "4x"}), bytes(16),
                     "non-negative integers"),
    "negative_dimension": (
        1, _ingest({"dtype": "<i8", "shape": [-1]}), bytes(16),
        "non-negative integers"),
    "bool_dimension": (
        1, _ingest({"dtype": "<i8", "shape": [True]}), bytes(16),
        "non-negative integers"),
    "spec_not_object": (1, {"seq": 1, "arrays": ["<i8", _I8]}, bytes(16),
                        "no dtype string"),
    "arrays_not_list": (1, {"seq": 1, "arrays": {"dtype": "<i8"}}, b"",
                        "'arrays' is not a list"),
    "list_meta": (2, [0, 1], b"", "not an object"),
    "ingest_without_seq": (1, {"arrays": [_I8, _I8]}, bytes(16), "lacks"),
    "ingest_with_one_array": (1, {"seq": 1, "arrays": [_I8]}, bytes(8),
                              "carries 1 arrays"),
    "report_without_aggregates": (
        2, {"worker": 0, "seq": 1, "state": None, "arrays": []}, b"",
        "lacks"),
    "report_one_array_per_entry": (
        2, _report([{"site": 0, "n_events": 1}], 1), bytes(8),
        "carries 1 arrays"),
    "report_entry_not_object": (2, _report([3], 2), bytes(16),
                                "'aggregates'"),
    "report_entry_without_site": (
        2, _report([{"n_events": 1}], 2), bytes(16), "'aggregates'"),
    "seq_not_a_number": (1, {"seq": "x", "arrays": [_I8, _I8]}, bytes(16),
                         "bad field value"),
    "worker_null": (2, dict(_report([], 0), worker=None), b"",
                    "bad field value"),
}


class TestMalformedFrameMeta:
    """A frame that passes its CRC but carries meta no frame can be
    rebuilt from raises :class:`WireError` and poisons the decoder —
    never a bare ``KeyError``/``TypeError``, which would escape the
    event loop instead of dropping the connection."""

    @pytest.mark.parametrize("case", list(BAD_FRAMES))
    def test_feed_raises_wire_error_and_poisons(self, case):
        kind, meta, body, error = BAD_FRAMES[case]
        decoder = FrameDecoder()
        with pytest.raises(WireError, match=error):
            decoder.feed(raw_frame(kind, meta, body))
        with pytest.raises(WireError, match="reconnect"):
            decoder.feed(encoded(Ping()))

    @pytest.mark.parametrize("case", list(BAD_FRAMES))
    def test_wal_scan_raises_wal_corrupt(self, case, tmp_path):
        meta = json.dumps({"seq": 1, "m": 50, "epoch": 0,
                           "partitioner": None, "workers": [0]}).encode()
        payload = (struct.pack("<I", len(meta)) + meta
                   + raw_frame(*BAD_FRAMES[case][:3]))
        path = tmp_path / "wal.log"
        path.write_bytes(struct.pack(
            "<2sBBII", WAL_MAGIC, WAL_VERSION, 1, len(payload),
            zlib.crc32(payload),
        ) + payload)
        with pytest.raises(WalCorrupt, match="corrupt frame"):
            WriteAheadLog.scan(path)

    def test_empty_payload_of_a_frame_with_fields(self):
        blob = HEADER.pack(MAGIC, VERSION, 1, 0, 0)  # IngestBatch, no meta
        with pytest.raises(WireError, match="lacks"):
            FrameDecoder().feed(blob)

    def test_the_table_shapes_decode_once_repaired(self):
        (batch,) = FrameDecoder().feed(raw_frame(
            1, _ingest({"dtype": "|u1", "shape": [2, 3]}),
            bytes(range(6)) + bytes(8)))
        assert batch.data.tolist() == [[0, 1, 2], [3, 4, 5]]
        (report,) = FrameDecoder().feed(raw_frame(
            2, _report([{"site": 4, "n_events": 1}], 2), bytes(16)))
        assert report.aggregates[0].site == 4

    def test_bad_meta_drops_connection_not_listener(self, listener):
        chan = listener.open_channel(0, 0)
        sock, ack = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert ack.ok
        sock.sendall(raw_frame(*BAD_FRAMES["ingest_without_seq"][:3]))
        pump_until(listener, lambda: not chan.connected)
        assert listener.stats()["wire_errors"] == 1
        assert chan._inbound == []
        sock.close()
        sock2, ack2 = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert ack2.ok
        sock2.close()


class TestSendQueue:
    def _entry_bytes(self, queue):
        return b"".join(bytes(b) for b in queue.buffers(limit=1000))

    def test_partial_write_bookkeeping_across_buffers(self):
        q = SendQueue()
        first = q.push(encode_frame(small()))
        second = q.push(encode_frame(
            IngestBatch(1, np.arange(6, dtype=np.int64).reshape(2, 3),
                        np.zeros(2, np.int64))
        ))
        total = encoded(small()) + encoded(
            IngestBatch(1, np.arange(6, dtype=np.int64).reshape(2, 3),
                        np.zeros(2, np.int64))
        )
        assert self._entry_bytes(q) == total
        assert q.pending_frames == 2
        # Advance through the first frame and into the second.
        cut = first["nbytes"] + 5
        q.advance(cut)
        assert first["done"] and not second["done"]
        assert self._entry_bytes(q) == total[cut:]
        assert q.pending_bytes == len(total) - cut
        q.advance(len(total) - cut)
        assert second["done"]
        assert not q

    def test_rewind_restarts_head_frame(self):
        q = SendQueue()
        q.push(encode_frame(small()))
        blob = encoded(small())
        q.advance(4)
        assert self._entry_bytes(q) == blob[4:]
        q.rewind()
        assert self._entry_bytes(q) == blob

    def test_drop_control_discards_stale_pings(self):
        q = SendQueue()
        q.push(encode_frame(Ping()), control=True)
        q.push(encode_frame(small()))
        q.push(encode_frame(Ping()), control=True)
        q.drop_control()
        assert q.pending_frames == 1
        assert self._entry_bytes(q) == encoded(small())


# ----------------------------------------------------------------------
# Endpoints on a real loopback socket pair
# ----------------------------------------------------------------------
def pump_until(listener, cond, timeout=5.0, step=0.02):
    deadline = time.monotonic() + timeout
    while not cond():
        listener.pump(step)
        if time.monotonic() >= deadline:
            raise AssertionError("listener condition never became true")


def raw_dial(listener, hello):
    """Dial + handshake with a bare socket; returns (sock, ack)."""
    sock = socket.create_connection(listener.address, timeout=5.0)
    sock.sendall(encoded(hello))
    decoder = FrameDecoder()
    frames = []
    sock.settimeout(5.0)
    got = {"data": b""}

    def drain():
        try:
            sock.setblocking(False)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                got["data"] += chunk
        except (BlockingIOError, InterruptedError):
            pass
        finally:
            sock.setblocking(True)
        frames.extend(decoder.feed(got["data"]))
        got["data"] = b""
        return bool(frames)

    pump_until(listener, drain)
    return sock, frames.pop(0)


class _Worker(threading.Thread):
    """Run transport-side blocking calls off the coordinator thread.

    Mirrors production: the dialer blocks in its own process while the
    coordinator thread pumps the listener; here a thread stands in for
    the process.
    """

    def __init__(self, fn):
        super().__init__(daemon=True)
        self.fn = fn
        self.value = None
        self.error = None
        self.start()

    def run(self):
        try:
            self.value = self.fn()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            self.error = exc

    def finish(self, timeout=10.0):
        self.join(timeout)
        assert not self.is_alive(), "worker thread hung"
        if self.error is not None:
            raise self.error
        return self.value


@pytest.fixture()
def listener():
    lst = Listener(poll_interval=0.01)
    yield lst
    lst.close()


@pytest.fixture()
def listener_gen2():
    """A listener acting as coordinator incarnation 2 (post-recovery)."""
    lst = Listener(poll_interval=0.01, incarnation=2)
    yield lst
    lst.close()


def transport_for(listener, *, worker=0, incarnation=0, **kwargs):
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("connect_timeout", 5.0)
    return SocketTransport(
        listener.address, worker=worker, incarnation=incarnation,
        token=listener.token, **kwargs
    )


class TestHandshake:
    def test_accepts_expected_incarnation(self, listener):
        chan = listener.open_channel(0, 1)
        sock, ack = raw_dial(listener, make_hello(listener.token, 0, 1))
        assert ack.ok
        assert chan.connected
        assert listener.stats()["accepted"] == 1
        sock.close()

    def test_refuses_bad_token(self, listener):
        # A dialer with the wrong session token produces a wrong MAC.
        listener.open_channel(0, 0)
        sock, ack = raw_dial(listener, make_hello("wrong", 0, 0))
        assert not ack.ok and "token" in ack.reason
        assert listener.stats()["refused"] == 1
        sock.close()

    def test_refuses_tampered_identity(self, listener):
        # The MAC binds the identity fields: a captured Hello replayed
        # under a different worker fails verification even though the
        # MAC itself was produced with the right token.
        listener.open_channel(0, 0)
        listener.open_channel(1, 0)
        hello = make_hello(listener.token, 0, 0)
        hello.worker = 1
        sock, ack = raw_dial(listener, hello)
        assert not ack.ok and "MAC" in ack.reason
        sock.close()

    def test_refuses_stale_coordinator_incarnation(self, listener_gen2):
        # The recovery guard: a worker spawned by a crashed coordinator
        # life dials the successor and is refused (docs/recovery.md).
        listener_gen2.open_channel(0, 0)
        sock, ack = raw_dial(
            listener_gen2,
            make_hello(listener_gen2.token, 0, 0, coordinator=1),
        )
        assert not ack.ok and "stale coordinator incarnation" in ack.reason
        sock2, ack2 = raw_dial(
            listener_gen2,
            make_hello(listener_gen2.token, 0, 0, coordinator=2),
        )
        assert ack2.ok
        sock.close()
        sock2.close()

    def test_refuses_stale_incarnation(self, listener):
        # The SIGKILL guard: after a respawn bumps the expected
        # incarnation, the dead worker's lingering dial is refused.
        listener.open_channel(0, 2)
        sock, ack = raw_dial(listener, make_hello(listener.token, 0, 1))
        assert not ack.ok and "stale incarnation" in ack.reason
        sock.close()

    def test_refuses_unknown_channel(self, listener):
        sock, ack = raw_dial(listener, make_hello(listener.token, 5, 0))
        assert not ack.ok and "no channel for worker 5" in ack.reason
        sock.close()

    def test_bad_token_raises_typed_error_not_hang(self, listener):
        # End-to-end through SocketTransport: a refused MAC surfaces as
        # HandshakeRefused (a typed TransportClosed) instead of a hang.
        listener.open_channel(0, 0)
        transport = SocketTransport(
            listener.address, worker=0,
            incarnation=0, token="not-the-session-token",
            poll_interval=0.01, connect_timeout=5.0,
        )
        worker = _Worker(lambda: transport.recv(timeout=5.0))
        pump_until(listener, lambda: not worker.is_alive())
        with pytest.raises(HandshakeRefused, match="token"):
            worker.finish()
        transport.close()

    def test_transport_raises_handshake_refused(self, listener):
        listener.open_channel(0, 3)
        transport = transport_for(listener, incarnation=1)
        worker = _Worker(lambda: transport.recv(timeout=5.0))
        pump_until(listener, lambda: not worker.is_alive())
        with pytest.raises(HandshakeRefused, match="stale incarnation"):
            worker.finish()
        transport.close()

    def test_connect_timeout_when_nobody_listens(self):
        transport = SocketTransport(
            ("127.0.0.1", 1), worker=0,
            connect_timeout=0.3, poll_interval=0.01,
        )
        t0 = time.monotonic()
        with pytest.raises(TransportClosed, match="could not connect"):
            transport.send(small())
        assert time.monotonic() - t0 < 5.0
        transport.close()


class TestSocketEndpoints:
    def test_both_directions_round_trip(self, listener):
        # One connection carries the batch down and the report up.
        chan = listener.open_channel(0, 0)
        batch = IngestBatch(
            1, np.arange(15, dtype=np.int64).reshape(3, 5),
            np.zeros(3, np.int64),
        )

        def worker_side():
            conn = transport_for(listener)
            try:
                frame = conn.recv(timeout=10.0)
                conn.send(small(frame.seq))
                return frame, conn.stats()
            finally:
                conn.close()

        worker = _Worker(worker_side)
        chan.send(batch, timeout=10.0)
        report = chan.recv(timeout=10.0)
        frame, stats = worker.finish()
        assert isinstance(report, ValueReport) and report.seq == 1
        assert_frames_equal(frame, batch)
        assert chan.stats()["sent"] == chan.stats()["received"] == 1
        assert stats["sent"] == stats["received"] == 1
        assert listener.stats()["accepted"] == 1

    def test_both_directions_fill_one_socket(self):
        # Each end sends a frame far larger than the narrowed windows
        # before reading anything.  A blocked send keeps reading the
        # same socket, so both sends block and both still complete.
        listener = Listener(poll_interval=0.01, sockbuf=65536)
        chan = listener.open_channel(0, 0)
        down = IngestBatch(
            1, np.arange(1_000_000, dtype=np.int64).reshape(-1, 5),
            np.zeros(200_000, np.int64),
        )
        up = ValueReport(0, 1, [
            SiteAggregate(
                0, np.arange(500_000, dtype=np.int64),
                np.ones(500_000, dtype=np.int64), 9,
            )
        ], None)

        def worker_side():
            conn = transport_for(listener, fault=sockbuf(65536))
            try:
                conn.send(up, timeout=10.0)
                return conn.recv(timeout=10.0), conn.stats()
            finally:
                conn.close()

        worker = _Worker(worker_side)
        try:
            pump_until(listener, lambda: chan.connected)
            chan.send(down, timeout=10.0)
            report = chan.recv(timeout=10.0)
            frame, stats = worker.finish()
        finally:
            listener.close()
        assert chan.blocked_sends == 1
        assert stats["blocked_sends"] == 1
        assert_frames_equal(frame, down)
        assert_frames_equal(report, up)

    def test_coordinator_send_backpressure_blocks_and_resumes(self):
        # Narrow windows both sides (the listener's sockbuf is applied
        # pre-listen, so accepted sockets inherit it); the worker
        # refuses to read until released, so a large frame must block
        # the channel send.  64 KiB windows, not pathological 8 KiB
        # ones: tiny receive windows trip the kernel's persist timer
        # and turn the drain into a ~5 frames/second crawl.
        listener = Listener(poll_interval=0.01, sockbuf=65536)
        self._backpressure_case(listener)

    def _backpressure_case(self, listener):
        chan = listener.open_channel(0, 0)
        big = IngestBatch(
            1, np.arange(1_000_000, dtype=np.int64).reshape(-1, 5),
            np.zeros(200_000, np.int64),
        )
        release = threading.Event()

        def worker_side():
            transport = transport_for(listener, fault=sockbuf(65536))
            try:
                transport._ensure_connected()
                release.wait(timeout=10.0)
                return transport.recv(timeout=10.0)
            finally:
                transport.close()

        worker = _Worker(worker_side)
        pump_until(listener, lambda: chan.connected)
        with pytest.raises(TransportClosed, match="backpressure"):
            chan.send(big, timeout=0.4)
        assert chan.blocked_sends == 1
        assert chan.blocked_seconds > 0.0
        release.set()
        try:
            # Identity-tracked retry: the same frame object resumes the
            # partially-written entry instead of queueing a duplicate.
            chan.send(big, timeout=10.0)
            assert chan.sent == 1
            frame = worker.finish()
            assert_frames_equal(frame, big)
        finally:
            listener.close()

    def test_worker_send_backpressure_blocks_then_pump_completes(self):
        listener = Listener(poll_interval=0.01, sockbuf=65536)
        chan = listener.open_channel(0, 0)
        big = ValueReport(0, 1, [
            SiteAggregate(
                0, np.arange(500_000, dtype=np.int64),
                np.ones(500_000, dtype=np.int64), 9,
            )
        ], None)

        timed_out = threading.Event()

        def worker_side():
            transport = transport_for(listener, fault=sockbuf(65536))
            try:
                transport._ensure_connected()
                # Past the handshake the coordinator stops pumping, so
                # the big frame must jam the kernel buffers and time
                # out.
                with pytest.raises(TransportClosed, match="backpressure"):
                    transport.send(big, timeout=0.4)
                stats_blocked = transport.stats()
                timed_out.set()
                # On timeout the frame stays queued (a wire stream
                # cannot un-send a partial frame); pumping finishes it.
                while transport._outbox:
                    transport.pump(0.02)
                return stats_blocked
            finally:
                transport.close()

        worker = _Worker(worker_side)
        try:
            pump_until(listener, lambda: chan.connected)
            assert timed_out.wait(10.0)
            pump_until(listener, lambda: chan._inbound)
            frame = chan.try_recv()
            stats_blocked = worker.finish()
        finally:
            listener.close()
        assert stats_blocked["blocked_sends"] == 1
        assert stats_blocked["blocked_seconds"] > 0.0
        assert_frames_equal(frame, big)

    def test_severed_connection_reconnects(self, listener, tmp_path):
        chan = listener.open_channel(0, 0)
        marker = DieOnceMarker(tmp_path, "sever")

        def worker_side():
            transport = transport_for(
                listener, fault=sever_after(1, marker),
            )
            try:
                transport.send(small(1), timeout=10.0)
                transport.send(small(2), timeout=10.0)
                return transport.stats()
            finally:
                transport.close()

        worker = _Worker(worker_side)
        got = [chan.recv(timeout=10.0), chan.recv(timeout=10.0)]
        stats = worker.finish()
        assert [f.seq for f in got] == [1, 2]
        assert stats["reconnects"] == 1
        assert chan.replacements == 1
        assert 0 in listener.take_disrupted()

    def test_drop_sends_fault_discards_silently(self, listener):
        chan = listener.open_channel(0, 0)

        def worker_side():
            transport = transport_for(listener, fault=drop_sends(1))
            try:
                transport.send(small(1), timeout=10.0)  # dropped
                transport.send(small(2), timeout=10.0)  # delivered
                return transport.stats()
            finally:
                transport.close()

        worker = _Worker(worker_side)
        frame = chan.recv(timeout=10.0)
        stats = worker.finish()
        assert frame.seq == 2
        assert stats == merge(stats, {"sent": 1, "dropped_frames": 1})

    def test_half_written_frame_on_eof_is_discarded(self, listener):
        # The SIGKILL-mid-send shape: EOF with a partial frame pending.
        # The connection is dropped, nothing is routed, no error leaks,
        # and the listener keeps serving new dials.
        chan = listener.open_channel(0, 0)
        sock, ack = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert ack.ok
        blob = encoded(small(7))
        sock.sendall(blob[:len(blob) - 4])
        sock.close()
        pump_until(listener, lambda: not chan.connected)
        assert chan._inbound == []
        assert listener.stats()["wire_errors"] == 0
        assert listener.take_disrupted() == {0}
        # Still live: a fresh dial handshakes and delivers.
        sock2, ack2 = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert ack2.ok
        sock2.sendall(blob)
        pump_until(listener, lambda: chan._inbound)
        assert chan.try_recv().seq == 7
        sock2.close()

    def test_corrupt_stream_drops_connection_not_listener(self, listener):
        chan = listener.open_channel(0, 0)
        sock, ack = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert ack.ok
        blob = bytearray(encoded(small()))
        blob[-1] ^= 0xFF
        sock.sendall(bytes(blob))
        pump_until(listener, lambda: not chan.connected)
        assert listener.stats()["wire_errors"] == 1
        assert chan._inbound == []
        sock.close()
        sock2, ack2 = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert ack2.ok
        sock2.close()

    def test_heartbeats_are_sent_and_never_counted(self, listener):
        chan = listener.open_channel(0, 0)

        def worker_side():
            transport = transport_for(listener, heartbeat_interval=0.05)
            try:
                transport._ensure_connected()
                deadline = time.monotonic() + 0.5
                while time.monotonic() < deadline:
                    transport.pump(0.02)
                return transport.stats(), transport.connected
            finally:
                transport.close()

        worker = _Worker(worker_side)
        pump_until(listener, lambda: not worker.is_alive())
        stats, still_connected = worker.finish()
        listener.pump(0.0)
        # Pings crossed the wire but appear in no payload accounting,
        # and the connection stayed healthy throughout.
        assert stats["sent"] == 0
        assert stats["reconnects"] == 0
        assert still_connected
        assert chan.stats()["received"] == 0
        assert chan._inbound == []

    def test_heartbeat_timeout_drops_silent_peer(self, listener):
        listener.open_channel(0, 0)

        def worker_side():
            transport = transport_for(
                listener, heartbeat_timeout=0.15, heartbeat_interval=10.0,
            )
            try:
                transport._ensure_connected()
                assert transport.connected
                deadline = time.monotonic() + 2.0
                while transport.connected and time.monotonic() < deadline:
                    time.sleep(0.05)
                    transport.pump(0.0)
                return transport.connected
            finally:
                transport.close()

        worker = _Worker(worker_side)
        pump_until(listener, lambda: not worker.is_alive())
        assert worker.finish() is False

    def test_respawn_closes_old_channel_and_refuses_old_dials(self, listener):
        first = listener.open_channel(0, 0)
        sock, ack = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert ack.ok
        second = listener.open_channel(0, 1)
        assert first.closed and not second.closed
        with pytest.raises(TransportClosed, match="closed"):
            first.recv(timeout=0.01)
        sock.close()
        sock2, ack2 = raw_dial(listener, make_hello(listener.token, 0, 0))
        assert not ack2.ok and "stale" in ack2.reason
        sock2.close()


# ----------------------------------------------------------------------
# Satellite: poll_interval threading (default pinned)
# ----------------------------------------------------------------------
class TestPollInterval:
    def test_socket_endpoints_default_unchanged(self):
        assert POLL_INTERVAL == 0.05  # the regression pin
        lst = Listener()
        try:
            assert lst.poll_interval == POLL_INTERVAL
            assert lst.open_channel(0, 0).poll_interval == POLL_INTERVAL
            transport = SocketTransport(lst.address, worker=0)
            assert transport.poll_interval == POLL_INTERVAL
            transport.close()
        finally:
            lst.close()

    def test_session_threads_poll_interval_into_transports(self):
        spec = spec_for("exact", "exact", k=2)
        with DistributedSession(spec, procs=2, poll_interval=0.01) as dist:
            assert all(
                h.channel.poll_interval == 0.01 for h in dist._workers
            )


# ----------------------------------------------------------------------
# Network faults under a real session (worker processes).  The
# conformance matrix, worker kills and backpressure run over this same
# wire in tests/test_dist.py.
# ----------------------------------------------------------------------
class TestTcpFaultInjection:
    def test_clean_run_dials_once_per_worker(self):
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=3)
        _, dist = run_pair(spec, batches, procs=2)
        assert dist._listener.stats()["accepted"] == dist.procs == 2
        assert dist._listener.stats()["replacements"] == 0

    def test_narrow_socket_pipelined_rounds_conform(self):
        # A worker whose one socket is narrowed to a few kilobytes
        # (below one sub-batch, about one report) with three rounds in
        # flight: batches queue down while reports queue up the same
        # connection.
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=6, size=400)
        _, dist = run_pair(
            spec, batches, procs=2, max_pending=3,
            worker_faults={0: sockbuf(4096)},
        )
        stats = dist.wire_stats()
        assert stats["worker_respawns"] == 0
        assert stats["blocked_sends"] > 0

    def test_severed_connection_mid_stream(self, tmp_path):
        # A network cut after the second report: the worker survives,
        # re-dials, and the stream completes conformantly.
        marker = DieOnceMarker(tmp_path, "sever")
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=5)
        _, dist = run_pair(
            spec, batches, procs=2,
            worker_faults={0: sever_after(2, marker)},
        )
        assert marker.fired
        assert dist.wire_stats()["worker_respawns"] == 0
        assert dist._listener.stats()["replacements"] >= 1

    def test_discarded_report_is_replayed_without_duplicates(self):
        # Deterministic in-flight loss: the listener eats worker 0's
        # first report and severs.  Without the reconnect-replay path
        # the round could never complete; with it the run must both
        # finish and stay conformant, applying the round exactly once.
        spec = spec_for("nonuniform", "hyz")
        batches = batches_for(spec.resolve_network(), rounds=4)
        _, dist = run_pair(
            spec, batches, procs=2,
            coordinator_faults={0: discard_frames(1)},
        )
        wire = dist.wire_stats()
        assert wire["replayed_rounds"] >= 1
        assert wire["duplicate_report_frames"] == 0
        assert wire["worker_respawns"] == 0
        assert dist._listener.stats()["discarded_frames"] == 1

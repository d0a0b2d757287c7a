"""Binary wire format for the TCP transport.

Every frame that crosses a socket is one length-prefixed record:

```
offset  size  field
0       2     magic  b"RN"
2       1     format version (1)
3       1     frame kind (the _KIND_* byte of the frame class)
4       4     payload length, little-endian uint32
8       4     CRC-32 of the payload, little-endian uint32
12      ...   payload
```

The payload of a non-empty frame is a 4-byte little-endian meta length,
a UTF-8 JSON *meta* document, and the raw bytes of every numpy array
the frame carries, concatenated in meta order.  The meta's ``arrays``
list records each array's dtype string (byte order explicit, so frames
decode across architectures) and shape.  Frames with no fields at all
(:class:`~repro.dist.messages.Shutdown`, :class:`Ping`) encode with a
genuinely zero-length payload.

**Zero-copy discipline.**  :func:`encode_frame` returns a list of
buffers — one small header+meta ``bytes`` followed by memoryviews of
the frame's (C-contiguous) arrays — so a transport can hand them to
``socket.sendmsg`` without ever copying array payloads.
:class:`FrameDecoder` reads each frame's payload into one dedicated
buffer (``recv``-chunk appends, no per-frame reassembly of fragments)
and every decoded array is a ``np.frombuffer`` view into it: one
materialization per frame, zero per-array copies.

Errors are typed (:class:`WireError` and its subclasses
:class:`FrameTooLarge` / :class:`ChecksumError`) and synchronous: a
corrupt header or payload raises on ``feed`` — it can never hang a
reader.  A decoder that raised is poisoned (the stream position is
unrecoverable) and refuses further feeds; transports respond by
dropping the connection.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
import math
import struct
import zlib

import numpy as np

from repro.dist.messages import (
    IngestBatch,
    RoundSync,
    Shutdown,
    SiteAggregate,
    ThresholdUpdate,
    ValueReport,
)
from repro.errors import ExecutionError

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER",
    "MAX_FRAME_BYTES",
    "WireError",
    "FrameTooLarge",
    "ChecksumError",
    "Hello",
    "HelloAck",
    "Ping",
    "hello_mac",
    "make_hello",
    "encode_frame",
    "decode_payload",
    "FrameDecoder",
]

MAGIC = b"RN"
VERSION = 1

#: magic(2) | version(1) | kind(1) | payload_len(u32) | crc32(u32)
HEADER = struct.Struct("<2sBBII")
_META_LEN = struct.Struct("<I")

#: Default ceiling on a single frame's payload.  Large enough for a
#: 10k-event MUNIN ingest chunk (~83 MB), small enough that a corrupt
#: length field is caught instead of allocating the advertised garbage.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class WireError(ExecutionError):
    """The byte stream violates the wire format."""


class FrameTooLarge(WireError):
    """A frame's declared payload exceeds the configured maximum."""


class ChecksumError(WireError):
    """A frame's payload does not match its CRC-32."""


# ----------------------------------------------------------------------
# Control frames (never seen by the dist layer; the transport's own
# vocabulary for handshake and liveness).
# ----------------------------------------------------------------------
class Hello:
    """Dialer -> listener: identify this connection.

    ``channel`` names the logical direction (``"inbox"`` or
    ``"reports"``), ``incarnation`` the worker respawn generation — the
    listener rejects stale incarnations so a SIGKILLed worker's lingering
    socket can never impersonate its replacement — and ``coordinator``
    the coordinator's own restart generation (bumped by crash recovery,
    see ``docs/recovery.md``), so a worker spawned by a dead coordinator
    life is refused by its successor.

    The per-session secret token never crosses the wire: ``mac`` is an
    HMAC-SHA256 over the identity fields keyed by the token (see
    :func:`hello_mac`), which both authenticates the dialer and binds
    the claimed identity — an observer of one handshake cannot replay
    it as a different worker/channel/incarnation.
    """

    __slots__ = ("worker", "incarnation", "channel", "mac", "coordinator")

    def __init__(self, worker: int, incarnation: int, channel: str,
                 mac: str = "", coordinator: int = 0) -> None:
        self.worker = int(worker)
        self.incarnation = int(incarnation)
        self.channel = str(channel)
        self.mac = str(mac)
        self.coordinator = int(coordinator)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hello(worker={self.worker}, incarnation={self.incarnation}, "
            f"channel={self.channel!r}, coordinator={self.coordinator})"
        )


def hello_mac(token: str, worker: int, incarnation: int, channel: str,
              coordinator: int = 0) -> str:
    """The HMAC-SHA256 a valid :class:`Hello` must carry.

    Keyed by the session token, over the identity fields the listener
    authorizes — so the token itself stays off the wire and a captured
    Hello cannot be replayed under a different identity.
    """
    message = (
        f"{int(worker)}|{int(incarnation)}|{str(channel)}|{int(coordinator)}"
    ).encode("utf-8")
    return _hmac.new(
        str(token).encode("utf-8"), message, hashlib.sha256
    ).hexdigest()


def make_hello(token: str, worker: int, incarnation: int, channel: str,
               coordinator: int = 0) -> Hello:
    """A correctly MAC-signed :class:`Hello` for the given identity."""
    return Hello(
        worker, incarnation, channel,
        mac=hello_mac(token, worker, incarnation, channel, coordinator),
        coordinator=coordinator,
    )


class HelloAck:
    """Listener -> dialer: accept or reject a :class:`Hello`."""

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str = "") -> None:
        self.ok = bool(ok)
        self.reason = str(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HelloAck(ok={self.ok}, reason={self.reason!r})"


class Ping:
    """Either direction: heartbeat; refreshes liveness, carries nothing."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Ping()"


# ----------------------------------------------------------------------
# Frame registry: kind byte <-> (encode to meta+arrays, decode back)
# ----------------------------------------------------------------------
def _encode_ingest(frame: IngestBatch):
    return {"seq": frame.seq}, [frame.data, frame.site_ids]


def _decode_ingest(meta, arrays):
    return IngestBatch(meta["seq"], arrays[0], arrays[1])


def _encode_report(frame: ValueReport):
    meta = {
        "worker": frame.worker,
        "seq": frame.seq,
        "state": frame.state,
        "aggregates": [
            {"site": a.site, "n_events": a.n_events} for a in frame.aggregates
        ],
    }
    arrays = []
    for aggregate in frame.aggregates:
        arrays.append(aggregate.counter_ids)
        arrays.append(aggregate.counts)
    return meta, arrays


def _decode_report(meta, arrays):
    aggregates = [
        SiteAggregate(
            entry["site"], arrays[2 * i], arrays[2 * i + 1], entry["n_events"]
        )
        for i, entry in enumerate(meta["aggregates"])
    ]
    return ValueReport(meta["worker"], meta["seq"], aggregates, meta["state"])


def _encode_threshold(frame: ThresholdUpdate):
    return {"seq": frame.seq, "rounds": frame.rounds}, []


def _decode_threshold(meta, arrays):
    return ThresholdUpdate(meta["seq"], meta["rounds"])


def _encode_sync(frame: RoundSync):
    return {"worker": frame.worker, "acked": frame.acked}, []


def _decode_sync(meta, arrays):
    return RoundSync(meta["worker"], meta["acked"])


def _encode_hello(frame: Hello):
    return {
        "worker": frame.worker,
        "incarnation": frame.incarnation,
        "channel": frame.channel,
        "mac": frame.mac,
        "coordinator": frame.coordinator,
    }, []


def _decode_hello(meta, arrays):
    return Hello(
        meta["worker"], meta["incarnation"], meta["channel"],
        meta.get("mac", ""), meta.get("coordinator", 0),
    )


def _encode_hello_ack(frame: HelloAck):
    return {"ok": frame.ok, "reason": frame.reason}, []


def _decode_hello_ack(meta, arrays):
    return HelloAck(meta["ok"], meta.get("reason", ""))


def _encode_empty(frame):
    return {}, []


#: type -> (kind byte, encoder); kind byte -> decoder.
_ENCODERS = {
    IngestBatch: (1, _encode_ingest),
    ValueReport: (2, _encode_report),
    ThresholdUpdate: (3, _encode_threshold),
    RoundSync: (4, _encode_sync),
    Shutdown: (5, _encode_empty),
    Hello: (16, _encode_hello),
    HelloAck: (17, _encode_hello_ack),
    Ping: (18, _encode_empty),
}


def _report_arrays(meta) -> int:
    aggregates = meta["aggregates"]
    if not isinstance(aggregates, list) or not all(
        isinstance(entry, dict) and "site" in entry and "n_events" in entry
        for entry in aggregates
    ):
        raise WireError(
            "ValueReport meta 'aggregates' is not a list of "
            "{site, n_events} objects"
        )
    return 2 * len(aggregates)


def _no_arrays(meta) -> int:
    return 0


#: kind byte -> (decoder, required meta fields, arrays the meta implies).
_DECODERS = {
    1: (_decode_ingest, ("seq",), lambda meta: 2),
    2: (_decode_report, ("worker", "seq", "state", "aggregates"),
        _report_arrays),
    3: (_decode_threshold, ("seq", "rounds"), _no_arrays),
    4: (_decode_sync, ("worker", "acked"), _no_arrays),
    5: (lambda meta, arrays: Shutdown(), (), _no_arrays),
    16: (_decode_hello, ("worker", "incarnation", "channel"), _no_arrays),
    17: (_decode_hello_ack, ("ok",), _no_arrays),
    18: (lambda meta, arrays: Ping(), (), _no_arrays),
}


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_frame(frame, *, max_bytes: int = MAX_FRAME_BYTES) -> list:
    """Serialize ``frame`` into a list of send buffers.

    The first element is one ``bytes`` holding header, meta length, and
    meta JSON; the rest are memoryviews of the frame's arrays (made
    C-contiguous, which copies only if the input was not).  Suitable for
    ``socket.sendmsg`` or ``b"".join``.
    """
    try:
        kind, encoder = _ENCODERS[type(frame)]
    except KeyError:
        raise WireError(
            f"cannot encode {type(frame).__name__!r}: not a wire frame"
        ) from None
    meta, arrays = encoder(frame)
    buffers = []
    if meta or arrays:
        specs = []
        for array in arrays:
            array = np.ascontiguousarray(array)
            specs.append({"dtype": array.dtype.str, "shape": list(array.shape)})
            # memoryview.cast rejects zero-size shapes; an empty array
            # contributes zero payload bytes either way.
            buffers.append(
                memoryview(array).cast("B") if array.size
                else memoryview(b"")
            )
        meta = dict(meta)
        meta["arrays"] = specs
        try:
            meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise WireError(
                f"frame meta of {type(frame).__name__} is not "
                f"JSON-serializable: {exc}"
            ) from exc
        prefix = _META_LEN.pack(len(meta_bytes)) + meta_bytes
        payload_len = len(prefix) + sum(b.nbytes for b in buffers)
        crc = zlib.crc32(prefix)
        for buffer in buffers:
            crc = zlib.crc32(buffer, crc)
    else:
        prefix = b""
        payload_len = 0
        crc = 0
    if payload_len > max_bytes:
        raise FrameTooLarge(
            f"{type(frame).__name__} payload is {payload_len} bytes, over "
            f"the {max_bytes}-byte frame limit"
        )
    header = HEADER.pack(MAGIC, VERSION, kind, payload_len, crc)
    return [header + prefix] + buffers


def _array_spec(spec) -> tuple:
    """``(dtype, shape, element count)`` of one meta ``arrays`` entry."""
    if not isinstance(spec, dict) or not isinstance(spec.get("dtype"), str):
        raise WireError(f"frame array spec {spec!r} has no dtype string")
    try:
        dtype = np.dtype(spec["dtype"])
    except (TypeError, ValueError) as exc:
        raise WireError(
            f"frame array dtype {spec['dtype']!r} is not a dtype: {exc}"
        ) from None
    if dtype.kind not in "biuf":
        raise WireError(
            f"frame array dtype {spec['dtype']!r} is not a plain numeric "
            "or boolean dtype"
        )
    shape = spec.get("shape")
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise WireError(
            f"frame array shape {shape!r} is not a list of non-negative "
            "integers"
        )
    shape = tuple(shape)
    return dtype, shape, math.prod(shape)


def decode_payload(kind: int, payload) -> object:
    """Rebuild a frame from its kind byte and payload buffer.

    ``payload`` must be a writable buffer (the decoder hands over a
    ``memoryview`` of a dedicated ``bytearray``); decoded arrays are
    zero-copy views into it.  Any payload the frame kind cannot be
    rebuilt from — meta that is not a JSON object or lacks a field, an
    array spec with a non-numeric dtype or a bad shape, the wrong number
    of arrays, a field value the frame rejects — raises
    :class:`WireError`.
    """
    entry = _DECODERS.get(kind)
    if entry is None:
        raise WireError(f"unknown frame kind {kind}")
    decoder, fields, n_arrays = entry
    view = memoryview(payload)
    meta, specs, offset = {}, [], 0
    if view.nbytes:
        if view.nbytes < _META_LEN.size:
            raise WireError("truncated frame payload: no meta length")
        (meta_len,) = _META_LEN.unpack_from(view, 0)
        offset = _META_LEN.size + meta_len
        if offset > view.nbytes:
            raise WireError(
                "truncated frame payload: meta overruns the frame"
            )
        try:
            meta = json.loads(bytes(view[_META_LEN.size:offset]))
        except ValueError as exc:
            raise WireError(f"frame meta is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise WireError(
                f"frame meta is a JSON {type(meta).__name__}, not an object"
            )
        specs = meta.get("arrays", [])
        if not isinstance(specs, list):
            raise WireError("frame meta 'arrays' is not a list")
    missing = [field for field in fields if field not in meta]
    if missing:
        raise WireError(f"frame kind {kind} meta lacks {missing}")
    expected = n_arrays(meta)
    if len(specs) != expected:
        raise WireError(
            f"frame kind {kind} carries {len(specs)} arrays, its meta "
            f"implies {expected}"
        )
    arrays = []
    for spec in specs:
        dtype, shape, count = _array_spec(spec)
        nbytes = dtype.itemsize * count
        if offset + nbytes > view.nbytes:
            raise WireError(
                "truncated frame payload: array overruns the frame"
            )
        arrays.append(
            np.frombuffer(view, dtype=dtype, count=count,
                          offset=offset).reshape(shape)
        )
        offset += nbytes
    if offset != view.nbytes:
        raise WireError(
            f"frame payload has {view.nbytes - offset} trailing bytes"
        )
    try:
        return decoder(meta, arrays)
    except (TypeError, ValueError) as exc:
        raise WireError(
            f"frame kind {kind} meta has a bad field value: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Streaming decode
# ----------------------------------------------------------------------
class FrameDecoder:
    """Reassemble frames from an arbitrary chunking of the byte stream.

    ``feed`` accepts whatever a socket read produced — one byte or a
    megabyte — and returns every frame completed by it.  Header bytes
    accumulate in a 12-byte scratch; payload bytes go straight into one
    ``bytearray`` sized from the header, so a frame split across many
    reads is still materialized exactly once.
    """

    def __init__(self, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._header = bytearray()
        self._payload: bytearray | None = None
        self._filled = 0
        self._kind = 0
        self._crc = 0
        self._poisoned = False
        #: Total frames decoded (diagnostics).
        self.frames_decoded = 0

    def _fail(self, error: WireError):
        # After a format error the stream position is meaningless; the
        # transport must drop the connection and resynchronize by
        # reconnecting.
        self._poisoned = True
        raise error

    def feed(self, data) -> list:
        """Consume ``data``; return the frames it completed (in order)."""
        if self._poisoned:
            self._fail(WireError(
                "decoder already failed; reconnect to resynchronize"
            ))
        view = memoryview(data).cast("B")
        frames = []
        while view.nbytes:
            if self._payload is None:
                take = min(HEADER.size - len(self._header), view.nbytes)
                self._header += view[:take]
                view = view[take:]
                if len(self._header) < HEADER.size:
                    break
                magic, version, kind, length, crc = HEADER.unpack(
                    bytes(self._header)
                )
                if magic != MAGIC:
                    self._fail(WireError(
                        f"bad frame magic {magic!r}; peer is not speaking "
                        "the repro wire protocol"
                    ))
                if version != VERSION:
                    self._fail(WireError(
                        f"unsupported wire version {version} (expected "
                        f"{VERSION})"
                    ))
                if length > self.max_bytes:
                    self._fail(FrameTooLarge(
                        f"incoming frame declares {length} payload bytes, "
                        f"over the {self.max_bytes}-byte limit"
                    ))
                self._kind, self._crc = kind, crc
                self._payload = bytearray(length)
                self._filled = 0
            room = len(self._payload) - self._filled
            take = min(room, view.nbytes)
            if take:
                self._payload[self._filled:self._filled + take] = view[:take]
                self._filled += take
                view = view[take:]
            if self._filled == len(self._payload):
                payload = self._payload
                self._header.clear()
                self._payload = None
                if zlib.crc32(payload) != self._crc:
                    self._fail(ChecksumError(
                        f"frame kind {self._kind} failed its CRC-32 check "
                        f"({len(payload)} payload bytes)"
                    ))
                try:
                    frames.append(decode_payload(self._kind, payload))
                except WireError as exc:
                    self._fail(exc)
                self.frames_decoded += 1
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes of the in-progress frame buffered so far."""
        if self._payload is None:
            return len(self._header)
        return HEADER.size + self._filled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameDecoder(decoded={self.frames_decoded}, "
            f"pending={self.pending_bytes})"
        )

"""TCP transport subsystem for the distributed runtime.

This package is the only wire between the coordinator and the site
workers of :mod:`repro.dist`, on one host (loopback) or across a
network.  Three layers:

- :mod:`repro.net.wire` — length-prefixed, CRC-checked binary framing
  for the :mod:`repro.dist.messages` vocabulary, zero-copy for numpy
  payloads, plus the transport's own control frames (Hello/HelloAck/
  Ping).
- :mod:`repro.net.transport` — :class:`SocketTransport`, the
  dialer-side (site worker) end: a blocking send/recv surface over a
  non-blocking socket with backpressure accounting, heartbeats, and
  exponential-backoff reconnect.
- :mod:`repro.net.endpoint` — :class:`Listener` and
  :class:`CoordinatorChannel`, the coordinator end: one accept loop,
  an incarnation-checked handshake, and disruption tracking that
  drives the coordinator's unreported-round replay.

:class:`~repro.dist.DistributedSession` plugs the three together;
``docs/networking.md`` documents the wire format and the recovery
policies.
"""

from repro.net.endpoint import CoordinatorChannel, Listener
from repro.net.transport import (
    CONNECT_TIMEOUT,
    HEARTBEAT_INTERVAL,
    HandshakeRefused,
    SendQueue,
    SocketTransport,
)
from repro.net.wire import (
    MAX_FRAME_BYTES,
    ChecksumError,
    FrameDecoder,
    FrameTooLarge,
    Hello,
    HelloAck,
    Ping,
    WireError,
    decode_payload,
    encode_frame,
    hello_mac,
    make_hello,
)

__all__ = [
    "Listener",
    "CoordinatorChannel",
    "SocketTransport",
    "SendQueue",
    "HandshakeRefused",
    "HEARTBEAT_INTERVAL",
    "CONNECT_TIMEOUT",
    "encode_frame",
    "decode_payload",
    "FrameDecoder",
    "Hello",
    "HelloAck",
    "Ping",
    "hello_mac",
    "make_hello",
    "WireError",
    "FrameTooLarge",
    "ChecksumError",
    "MAX_FRAME_BYTES",
]

"""Coordinator-side TCP endpoint: listener, handshake, channels.

One :class:`Listener` serves every worker of a
:class:`~repro.dist.coordinator.DistributedSession`: it owns the single
listening socket, a shared :mod:`selectors` loop over all accepted
connections, and a registry of :class:`CoordinatorChannel` objects — the
coordinator-side peers of the workers'
:class:`~repro.net.transport.SocketTransport` ends, speaking the same
transport surface (``send``/``recv``/``try_recv``/``stats``) the
coordinator event loop drives.

**Handshake.**  A dialer's first frame must be a
:class:`~repro.net.wire.Hello` carrying worker id, respawn incarnation,
channel name (``"inbox"``/``"reports"``), the coordinator's restart
incarnation, and an HMAC-SHA256 over all of them keyed by the session
token (the token never crosses the wire; see
:func:`~repro.net.wire.hello_mac`).  The listener verifies the MAC with
``hmac.compare_digest`` and accepts only the *expected* worker
incarnation of a registered channel under its *own* coordinator
incarnation: a SIGKILLed worker's lingering socket, a delayed reconnect
from a dead incarnation, a forged or replayed Hello, or a worker from a
pre-recovery coordinator life is refused with a
:class:`~repro.net.wire.HelloAck` and closed, so it can never wedge or
impersonate the replacement.

**Disruption tracking.**  Whenever an authenticated connection is lost
(EOF, reset, wire error) or replaced by a re-dial, the owning worker id
lands in the *disrupted* set.  The coordinator drains it via
:meth:`Listener.take_disrupted` and replays that worker's unreported
rounds — the recovery that makes in-flight frame loss on a severed
connection invisible to the conformance contract (reports are
deduplicated per round, aggregates are pure functions of the
sub-batch).

**Fault injection.**  ``channel_faults`` maps ``(worker, channel)`` to
a declarative spec; beyond the shared ``delay_send``/``delay_recv``
keys it understands

``discard_frames``
    Drop the first N decoded payload frames on this channel *and sever
    the connection* — deterministic in-flight loss, the adversarial
    case the replay path exists for.
"""

from __future__ import annotations

import hmac
import secrets
import selectors
import socket
import time

from repro.dist.transport import POLL_INTERVAL, TransportClosed
from repro.net.transport import SendQueue, apply_sockopts
from repro.net.wire import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    Hello,
    HelloAck,
    Ping,
    WireError,
    encode_frame,
    hello_mac,
)


class _Connection:
    """One accepted socket: decoder, registration mask, owning channel."""

    __slots__ = ("sock", "decoder", "channel", "events")

    def __init__(self, sock, decoder) -> None:
        self.sock = sock
        self.decoder = decoder
        self.channel: CoordinatorChannel | None = None
        self.events = selectors.EVENT_READ


class Listener:
    """The coordinator's accept loop and connection registry.

    Parameters
    ----------
    host / port:
        Bind address; port 0 (the default) picks an ephemeral port —
        read it back from :attr:`address`.  ``host="0.0.0.0"`` binds
        every interface (the cross-host deployment knob).
    advertise:
        The hostname/IP workers should *dial*, when it differs from the
        bind address — binding ``0.0.0.0`` yields an undialable
        wildcard, and a NAT'd or multi-homed coordinator may be
        reachable under a different name than it binds.  :attr:`address`
        carries the advertised host; :attr:`bound_address` the socket's
        actual one.
    token:
        Session secret keying every :class:`~repro.net.wire.Hello`'s
        HMAC (the token itself never crosses the wire); generated when
        omitted.
    incarnation:
        This coordinator's restart generation.  Hellos carrying any
        other ``coordinator`` value are refused — a worker spawned by a
        dead coordinator life cannot attach to its recovered successor
        (see ``docs/recovery.md``).
    poll_interval:
        Default liveness-poll cadence handed to channels.
    sockbuf:
        When set, shrink ``SO_SNDBUF``/``SO_RCVBUF`` on the listening
        socket (inherited by accepted connections, so the receive
        window is narrow from the SYN) — the backpressure test hook.
    channel_faults:
        ``(worker, channel) -> fault`` specs (module docstring).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        advertise: str | None = None,
        token: str | None = None,
        incarnation: int = 0,
        poll_interval: float | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        sockbuf: int | None = None,
        channel_faults: dict | None = None,
    ) -> None:
        self.token = token if token is not None else secrets.token_hex(16)
        self.incarnation = int(incarnation)
        self.poll_interval = (
            POLL_INTERVAL if poll_interval is None else float(poll_interval)
        )
        self.max_frame_bytes = int(max_frame_bytes)
        self.sockbuf = None if sockbuf is None else int(sockbuf)
        self._channel_faults = dict(channel_faults or {})
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if self.sockbuf:
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, self.sockbuf
            )
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, self.sockbuf
            )
        self._sock.bind((host, port))
        self._sock.listen(64)
        self._sock.setblocking(False)
        #: The socket's actual ``(host, port)``.
        self.bound_address = self._sock.getsockname()
        #: The ``(host, port)`` workers dial: the advertised host (when
        #: given) with the bound port — binding ``0.0.0.0`` needs a
        #: dialable name, and a NAT'd coordinator may advertise one that
        #: differs from any local interface.
        self.address = (
            (str(advertise), self.bound_address[1])
            if advertise is not None else self.bound_address
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ, None)
        self._connections: set[_Connection] = set()
        #: (worker, channel name) -> channel object.
        self._channels: dict[tuple[int, str], CoordinatorChannel] = {}
        #: worker -> the only incarnation whose Hello is accepted.
        self._expected: dict[int, int] = {}
        self._disrupted: set[int] = set()
        self._closed = False
        #: Diagnostics (JSON-ready via :meth:`stats`).
        self.accepted = 0
        self.refused = 0
        self.replacements = 0
        self.wire_errors = 0
        self.discarded_frames = 0

    # ------------------------------------------------------------------
    # Channel registry
    # ------------------------------------------------------------------
    def open_channel(
        self, worker: int, channel: str, incarnation: int, *,
        name: str | None = None, fault: dict | None = None,
    ) -> "CoordinatorChannel":
        """Register (or replace) the channel for one worker direction.

        Replacing an existing channel — a worker respawn — closes the
        old one and its connection outright: the new incarnation starts
        from a clean stream, and the old incarnation's Hello is refused
        from now on (``incarnation`` becomes the only accepted value
        for this worker).
        """
        key = (int(worker), str(channel))
        old = self._channels.get(key)
        if old is not None:
            old.close()
        if fault is None:
            fault = self._channel_faults.get(key)
        chan = CoordinatorChannel(
            self, key,
            name=name or f"worker-{key[0]}.{key[1]}",
            fault=fault,
        )
        self._channels[key] = chan
        self._expected[key[0]] = int(incarnation)
        return chan

    def take_disrupted(self) -> set[int]:
        """Workers whose connection was lost/replaced since the last call."""
        disrupted, self._disrupted = self._disrupted, set()
        return disrupted

    def waitables(self) -> list:
        """Sockets a caller can pass to ``multiprocessing.connection.wait``."""
        out = [self._sock]
        out.extend(c.sock for c in self._connections if c.sock is not None)
        return out

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def pump(self, timeout: float = 0.0) -> bool:
        """Accept, read, and flush everything ready; True on progress."""
        if self._closed:
            return False
        for chan in self._channels.values():
            chan._sync_write_interest()
        ready = self._selector.select(timeout)
        progressed = False
        for key, mask in ready:
            conn = key.data
            if conn is None:
                progressed |= self._accept_ready()
                continue
            if mask & selectors.EVENT_READ:
                progressed |= self._read_conn(conn)
            if (
                mask & selectors.EVENT_WRITE
                and conn.sock is not None
                and conn.channel is not None
            ):
                progressed |= conn.channel._flush_some()
        return progressed

    def _accept_ready(self) -> bool:
        progressed = False
        while True:
            try:
                sock, _ = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return progressed
            except OSError:  # pragma: no cover - defensive
                return progressed
            progressed = True
            self.accepted += 1
            sock.setblocking(False)
            apply_sockopts(sock)
            conn = _Connection(
                sock, FrameDecoder(max_bytes=self.max_frame_bytes)
            )
            self._selector.register(sock, conn.events, conn)
            self._connections.add(conn)

    def _read_conn(self, conn: _Connection) -> bool:
        progressed = False
        while conn.sock is not None:
            try:
                data = conn.sock.recv(1 << 18)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop_conn(conn, disrupt=True)
                return True
            if not data:
                # EOF: a half-written trailing frame (SIGKILL mid-send)
                # is discarded with the decoder — the replay path covers
                # whatever it carried.
                self._drop_conn(conn, disrupt=True)
                return True
            progressed = True
            if conn.channel is not None:
                conn.channel.bytes_received += len(data)
            try:
                frames = conn.decoder.feed(data)
            except WireError:
                self.wire_errors += 1
                self._drop_conn(conn, disrupt=True)
                return True
            for frame in frames:
                if conn.sock is None:
                    break  # severed mid-batch: later frames are "lost"
                self._route(conn, frame)
            if len(data) < (1 << 18):
                break
        return progressed

    def _route(self, conn: _Connection, frame) -> None:
        if conn.channel is None:
            self._handshake(conn, frame)
            return
        if isinstance(frame, Ping):
            return  # liveness only; never counted
        fault = conn.channel.fault
        limit = fault.get("discard_frames")
        if limit is not None and conn.channel.discarded < int(limit):
            conn.channel.discarded += 1
            self.discarded_frames += 1
            self._drop_conn(conn, disrupt=True)
            return
        conn.channel._inbound.append(frame)

    def _handshake(self, conn: _Connection, frame) -> None:
        if not isinstance(frame, Hello):
            self.wire_errors += 1
            self._drop_conn(conn, disrupt=False)
            return
        key = (frame.worker, frame.channel)
        chan = self._channels.get(key)
        expected_mac = hello_mac(
            self.token, frame.worker, frame.incarnation, frame.channel,
            frame.coordinator,
        )
        if not hmac.compare_digest(expected_mac, frame.mac):
            reason = "bad handshake MAC (session token mismatch)"
        elif frame.coordinator != self.incarnation:
            reason = (
                f"stale coordinator incarnation {frame.coordinator} "
                f"(this coordinator is incarnation {self.incarnation})"
            )
        elif chan is None or chan.closed:
            reason = f"unknown channel {key!r}"
        elif frame.incarnation != self._expected.get(frame.worker):
            reason = (
                f"stale incarnation {frame.incarnation} of worker "
                f"{frame.worker} (expected "
                f"{self._expected.get(frame.worker)})"
            )
        else:
            reason = None
        ack = HelloAck(reason is None, reason or "")
        try:
            conn.sock.setblocking(True)
            conn.sock.sendall(b"".join(encode_frame(ack)))
            conn.sock.setblocking(False)
        except OSError:
            self._drop_conn(conn, disrupt=False)
            return
        if reason is not None:
            self.refused += 1
            self._drop_conn(conn, disrupt=False)
            return
        conn.channel = chan
        chan._attach(conn)

    def _drop_conn(self, conn: _Connection, *, disrupt: bool) -> None:
        if conn.sock is None:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - defensive
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        conn.sock = None
        self._connections.discard(conn)
        if conn.channel is not None:
            conn.channel._detach(conn)
            if disrupt:
                self._disrupted.add(conn.channel.key[0])

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Listener-level diagnostics (JSON-ready)."""
        return {
            "accepted": int(self.accepted),
            "refused": int(self.refused),
            "replacements": int(self.replacements),
            "wire_errors": int(self.wire_errors),
            "discarded_frames": int(self.discarded_frames),
        }

    def close(self) -> None:
        if self._closed:
            return
        for conn in list(self._connections):
            self._drop_conn(conn, disrupt=False)
        for chan in self._channels.values():
            chan.closed = True
        try:
            self._selector.unregister(self._sock)
        except (KeyError, ValueError):  # pragma: no cover - defensive
            pass
        self._sock.close()
        self._selector.close()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Listener({self.address!r}, channels={len(self._channels)}, "
            f"connections={len(self._connections)})"
        )


class CoordinatorChannel:
    """The coordinator-side peer of one worker direction.

    Speaks the transport surface over whatever connection the
    :class:`Listener` has currently assigned to it.  Unlike the dialer
    side it never initiates connections: between the worker's dials the
    channel simply queues outbound frames (``send`` keeps blocking with
    the usual ``alive``/``timeout`` semantics) and replays the head
    frame from its first byte once a connection attaches.

    ``send`` tracks in-flight frames by identity: the coordinator's
    retry loop re-sends the *same frame object* after a timeout, and a
    wire stream cannot un-send a partially written
    frame, so a retry resumes the pending entry instead of queueing a
    duplicate.
    """

    def __init__(
        self, listener: Listener, key: tuple[int, str], *,
        name: str, fault: dict | None = None,
    ) -> None:
        self.listener = listener
        self.key = key
        self.name = str(name)
        self.fault = dict(fault) if fault else {}
        self.poll_interval = listener.poll_interval
        self.sent = 0
        self.received = 0
        self.blocked_sends = 0
        self.blocked_seconds = 0.0
        #: Re-dials accepted onto this channel after its first connect.
        self.replacements = 0
        #: Frames eaten by the ``discard_frames`` fault.
        self.discarded = 0
        #: Bytes handed to / taken from the kernel on this channel's
        #: authenticated connections (same rule as the dialer side).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.closed = False
        self._inbound: list = []
        self._outbox = SendQueue()
        self._pending: dict[int, dict] = {}
        self._conn: _Connection | None = None
        self._ever_connected = False

    # ------------------------------------------------------------------
    # Listener-side wiring
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._conn is not None

    def _attach(self, conn: _Connection) -> None:
        old, self._conn = self._conn, None
        if old is not None:
            # A re-dial replacing a connection the listener had not yet
            # seen die: drop the stale socket and flag the disruption.
            self.listener._drop_conn(old, disrupt=True)
        self._conn = conn
        self._outbox.rewind()
        if self._ever_connected:
            self.replacements += 1
            self.listener.replacements += 1
        self._ever_connected = True

    def _detach(self, conn: _Connection) -> None:
        if self._conn is conn:
            self._conn = None
            self._outbox.rewind()

    def _sync_write_interest(self) -> None:
        if self._conn is None or self._conn.sock is None:
            return
        events = selectors.EVENT_READ
        if self._outbox:
            events |= selectors.EVENT_WRITE
        if events != self._conn.events:
            self._conn.events = events
            self.listener._selector.modify(
                self._conn.sock, events, self._conn
            )

    def _flush_some(self) -> bool:
        progressed = False
        while self._conn is not None and self._outbox:
            try:
                written = self._conn.sock.sendmsg(self._outbox.buffers())
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.listener._drop_conn(self._conn, disrupt=True)
                return True
            if written:
                self.bytes_sent += written
                self._outbox.advance(written)
                progressed = True
            else:  # pragma: no cover - defensive
                break
        return progressed

    # ------------------------------------------------------------------
    # The transport surface
    # ------------------------------------------------------------------
    def send(self, frame, *, alive=None, timeout: float | None = None) -> None:
        """Queue ``frame``; block until the kernel accepted its bytes.

        Identity-tracked: re-sending a frame object whose previous send
        timed out resumes the pending entry (see class docstring).
        While blocked the *whole listener* is pumped, so reports from
        every worker keep draining into their channels and a worker
        blocked on its report send can always make progress — the
        deadlock-freedom half of the coordinator's drain-while-blocked
        loop, enforced one layer lower.
        """
        if self.closed:
            raise TransportClosed(f"{self.name!r} is closed")
        delay = self.fault.get("delay_send")
        if delay:
            time.sleep(float(delay))
        entry = self._pending.get(id(frame))
        if entry is None:
            entry = self._outbox.push(
                encode_frame(frame, max_bytes=self.listener.max_frame_bytes)
            )
            self._pending[id(frame)] = entry
        deadline = None if timeout is None else time.monotonic() + timeout
        blocked_at = None
        while not entry["done"]:
            self.listener.pump(
                self.poll_interval if blocked_at is not None else 0.0
            )
            if entry["done"]:
                break
            if blocked_at is None:
                blocked_at = time.monotonic()
                self.blocked_sends += 1
            if alive is not None and not alive():
                self.blocked_seconds += time.monotonic() - blocked_at
                raise TransportClosed(
                    f"peer of {self.name!r} died while the socket was full"
                )
            if deadline is not None and time.monotonic() >= deadline:
                self.blocked_seconds += time.monotonic() - blocked_at
                raise TransportClosed(
                    f"send on {self.name!r} timed out under backpressure"
                )
        if blocked_at is not None:
            self.blocked_seconds += time.monotonic() - blocked_at
        del self._pending[id(frame)]
        self.sent += 1

    def recv(self, *, alive=None, timeout: float | None = None):
        """Next frame, or ``None`` when ``timeout`` expires."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._inbound:
                return self._take_inbound()
            if self.closed:
                raise TransportClosed(f"{self.name!r} is closed")
            self.listener.pump(self.poll_interval)
            if self._inbound:
                continue
            if alive is not None and not alive():
                self.listener.pump(0.0)  # one last non-blocking look
                if self._inbound:
                    continue
                raise TransportClosed(
                    f"peer of {self.name!r} died with the stream empty"
                )
            if deadline is not None and time.monotonic() >= deadline:
                return None

    def try_recv(self):
        """Non-blocking :meth:`recv`; ``None`` when nothing is buffered."""
        if self.closed:
            return None
        if not self._inbound:
            self.listener.pump(0.0)
        if self._inbound:
            return self._take_inbound()
        return None

    def _take_inbound(self):
        frame = self._inbound.pop(0)
        self.received += 1
        delay = self.fault.get("delay_recv")
        if delay:
            time.sleep(float(delay))
        return frame

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Instrumentation counters (JSON-ready), transport surface + wire."""
        return {
            "sent": int(self.sent),
            "received": int(self.received),
            "blocked_sends": int(self.blocked_sends),
            "blocked_seconds": float(self.blocked_seconds),
            "replacements": int(self.replacements),
            "discarded": int(self.discarded),
            "bytes_sent": int(self.bytes_sent),
            "bytes_received": int(self.bytes_received),
        }

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._conn is not None:
            self.listener._drop_conn(self._conn, disrupt=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self.connected else "detached"
        return (
            f"CoordinatorChannel({self.name!r}, {state}, "
            f"sent={self.sent}, received={self.received})"
        )

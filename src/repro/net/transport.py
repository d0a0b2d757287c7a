"""`SocketTransport`: the dialer (site worker) end of a TCP channel.

This is the transport a site worker runs: it owns one socket, drives it
with a :mod:`selectors` event loop, and exposes the blocking surface
the worker loop speaks — ``send``/``recv``/``try_recv``/``stats``/
``close`` with ``alive`` polling, ``timeout`` semantics, and
:class:`TransportClosed` on a dead peer (see
:func:`repro.dist.site._site_worker_main`).  The coordinator-side
counterpart, which shares one selector across every worker's
connections and speaks the same surface, is
:class:`repro.net.endpoint.CoordinatorChannel`.

Semantics:

- **Backpressure**: ``send`` blocks until the frame's bytes are handed
  to the kernel.  A slow or stalled peer fills the socket buffers and
  the send blocks; blocked intervals are counted in ``blocked_sends`` /
  ``blocked_seconds``.
- **Liveness**: blocking operations poll ``alive()`` and heartbeat the
  connection (a :class:`~repro.net.wire.Ping` after
  ``heartbeat_interval`` of send silence); with ``heartbeat_timeout``
  set, a silent peer drops the connection instead of hanging forever.
- **Reconnect**: a severed connection (EOF, reset, injected fault) is
  re-dialed with exponential backoff and a fresh handshake carrying the
  same worker/incarnation identity.  Unflushed frames are re-sent from
  the head frame's first byte, so a frame is never delivered half-old
  half-new; frames lost in flight are recovered by the coordinator's
  reconnect replay (see ``docs/networking.md``).

Fault specs extend the declarative vocabulary of
:mod:`repro.dist.transport` (same dict, same pickling rationale):
``kill_after_sends``/``once_marker``/``delay_send``/``delay_recv``, plus

``sever_after_sends``
    Abruptly close the socket *before* the Nth+1 successful send — a
    simulated network cut; ``sever_marker`` (a ``create_once`` path)
    arms it exactly once across incarnations.
``sever_after_recvs``
    The receive-side cut: close after N frames received.
``drop_sends``
    Silently discard the first N payload frames instead of sending
    them (counted in ``dropped_frames``, never in ``sent``).
``sockbuf``
    Shrink ``SO_SNDBUF``/``SO_RCVBUF`` to this many bytes — the
    "narrow pipe" fault the TCP backpressure tests use.
"""

from __future__ import annotations

import selectors
import socket
import time

from repro.dist.transport import POLL_INTERVAL, TransportClosed, create_once
from repro.net.wire import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    HelloAck,
    Ping,
    WireError,
    encode_frame,
    make_hello,
)

#: Seconds of send silence before a heartbeat Ping is queued.
HEARTBEAT_INTERVAL = 1.0

#: Default ceiling on (re)connect attempts for one blocking operation.
CONNECT_TIMEOUT = 30.0

#: Cap on the exponential reconnect backoff.
MAX_BACKOFF = 1.0


class HandshakeRefused(TransportClosed):
    """The listener rejected this endpoint's :class:`Hello` (permanent)."""


def apply_sockopts(sock: socket.socket, fault: dict | None = None) -> None:
    """Standard socket options + the declarative ``sockbuf`` fault."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sockbuf = (fault or {}).get("sockbuf")
    if sockbuf:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, int(sockbuf))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, int(sockbuf))


class SendQueue:
    """Outbound frames as buffer lists, with partial-write bookkeeping.

    Frames are appended as the buffer lists :func:`encode_frame`
    produced (zero-copy for array payloads) plus a ``control`` flag so
    heartbeats never perturb the payload accounting.  ``advance`` walks
    written bytes across buffer and frame boundaries; ``rewind`` resets
    the head frame to its first byte after a reconnect.
    """

    def __init__(self) -> None:
        self._frames: list[dict] = []
        self._head_offset = 0

    def push(self, buffers: list, *, control: bool = False) -> dict:
        entry = {
            "buffers": buffers,
            "nbytes": sum(
                b.nbytes if isinstance(b, memoryview) else len(b)
                for b in buffers
            ),
            "control": control,
            "done": False,
        }
        self._frames.append(entry)
        return entry

    def __bool__(self) -> bool:
        return bool(self._frames)

    @property
    def pending_frames(self) -> int:
        return sum(1 for f in self._frames if not f["control"])

    @property
    def pending_bytes(self) -> int:
        return sum(f["nbytes"] for f in self._frames) - self._head_offset

    def buffers(self, limit: int = 16) -> list:
        """The next ``limit`` buffers to write, head offset applied."""
        out = []
        skip = self._head_offset
        for frame in self._frames:
            for buffer in frame["buffers"]:
                size = buffer.nbytes if isinstance(buffer, memoryview) else len(buffer)
                if skip >= size:
                    skip -= size
                    continue
                view = memoryview(buffer)
                out.append(view[skip:] if skip else view)
                skip = 0
                if len(out) >= limit:
                    return out
        return out

    def advance(self, nbytes: int) -> None:
        """Mark ``nbytes`` as written; pop (and flag) completed frames."""
        self._head_offset += nbytes
        while self._frames and self._head_offset >= self._frames[0]["nbytes"]:
            frame = self._frames.pop(0)
            self._head_offset -= frame["nbytes"]
            frame["done"] = True

    def rewind(self) -> None:
        """Restart the head frame from byte 0 (after a reconnect)."""
        self._head_offset = 0

    def drop_control(self) -> None:
        """Discard queued heartbeats (stale after a reconnect)."""
        kept = []
        for frame in self._frames:
            if frame["control"] and frame is not self._frames[0]:
                continue
            kept.append(frame)
        # Keep the head even if control: a partially-written ping must
        # finish on the same connection it started on — but after a
        # reconnect the offset was rewound, so it is safe to drop too.
        if kept and kept[0]["control"] and self._head_offset == 0:
            kept.pop(0)
        self._frames = kept


class SocketTransport:
    """One end of a framed TCP channel, dialer side.

    Parameters
    ----------
    address:
        The coordinator listener's ``(host, port)``.
    worker / channel / incarnation / token / coordinator:
        The handshake identity (see :class:`~repro.net.wire.Hello`):
        the token keys the Hello's HMAC (it never crosses the wire) and
        ``coordinator`` is the listener's restart generation this
        transport was spawned under.
    fault:
        Declarative fault spec (module docstring).
    poll_interval:
        Liveness-poll cadence while blocked (defaults to
        :data:`~repro.dist.transport.POLL_INTERVAL`).
    connect_timeout:
        Ceiling on one blocking operation's (re)connect attempts.
    heartbeat_timeout:
        Seconds of *receive* silence after which the connection is
        declared dead and re-dialed (``None``: rely on EOF/liveness).
    """

    def __init__(
        self,
        address,
        *,
        worker: int,
        channel: str,
        incarnation: int = 0,
        token: str = "",
        coordinator: int = 0,
        name: str | None = None,
        fault: dict | None = None,
        poll_interval: float | None = None,
        connect_timeout: float = CONNECT_TIMEOUT,
        handshake_timeout: float = 10.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_timeout: float | None = None,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.worker = int(worker)
        self.channel = str(channel)
        self.incarnation = int(incarnation)
        self.token = str(token)
        self.coordinator = int(coordinator)
        self.name = name or f"worker-{worker}.{channel}"
        self.fault = dict(fault) if fault else {}
        self.poll_interval = (
            POLL_INTERVAL if poll_interval is None else float(poll_interval)
        )
        self.connect_timeout = float(connect_timeout)
        self.handshake_timeout = float(handshake_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )
        # The transport accounting surface, plus wire extras.
        self.sent = 0
        self.received = 0
        self.blocked_sends = 0
        self.blocked_seconds = 0.0
        self.reconnects = 0
        self.dropped_frames = 0
        #: Bytes this end handed to / took from the kernel on established
        #: connections (frame headers, heartbeats and re-sent partial
        #: frames included; the handshake is not).
        self.bytes_sent = 0
        self.bytes_received = 0
        self._severed_sends = 0
        self._inbound: list = []
        self._outbox = SendQueue()
        self._sock: socket.socket | None = None
        self._decoder: FrameDecoder | None = None
        self._selector = selectors.DefaultSelector()
        self._registered_events = 0
        self._last_recv = time.monotonic()
        self._last_send = time.monotonic()
        self._ever_connected = False
        self._closed = False

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _drop_connection(self) -> None:
        if self._sock is None:
            return
        try:
            self._selector.unregister(self._sock)
        except (KeyError, ValueError):  # pragma: no cover - defensive
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._sock = None
        self._decoder = None
        self._registered_events = 0
        self._outbox.rewind()
        self._outbox.drop_control()

    def _connect_once(self, timeout: float) -> None:
        """One dial + handshake attempt; raises on failure."""
        sock = socket.create_connection(self.address, timeout=max(timeout, 0.05))
        try:
            apply_sockopts(sock, self.fault)
            sock.settimeout(self.handshake_timeout)
            hello = encode_frame(
                make_hello(
                    self.token, self.worker, self.incarnation, self.channel,
                    self.coordinator,
                )
            )
            sock.sendall(b"".join(hello))
            decoder = FrameDecoder(max_bytes=self.max_frame_bytes)
            frames: list = []
            deadline = time.monotonic() + self.handshake_timeout
            while not frames:
                if time.monotonic() > deadline:
                    raise TransportClosed(
                        f"{self.name!r}: handshake timed out"
                    )
                data = sock.recv(65536)
                if not data:
                    raise ConnectionResetError("peer closed during handshake")
                frames = decoder.feed(data)
            ack = frames.pop(0)
            if not isinstance(ack, HelloAck):
                raise WireError(
                    f"{self.name!r}: expected HelloAck, got {ack!r}"
                )
            if not ack.ok:
                raise HandshakeRefused(
                    f"{self.name!r}: listener refused the handshake: "
                    f"{ack.reason}"
                )
        except BaseException:
            sock.close()
            raise
        sock.setblocking(False)
        self._sock = sock
        self._decoder = decoder
        self._registered_events = selectors.EVENT_READ
        self._selector.register(sock, self._registered_events)
        self._last_recv = time.monotonic()
        self._last_send = time.monotonic()
        # Payload frames may ride in right behind the ack.
        self._route(frames)
        if self._ever_connected:
            self.reconnects += 1
        self._ever_connected = True

    def _ensure_connected(self, *, alive=None, deadline=None) -> None:
        if self.connected:
            return
        if self._closed:
            raise TransportClosed(f"{self.name!r} is closed")
        backoff = 0.05
        give_up = time.monotonic() + self.connect_timeout
        if deadline is not None:
            give_up = min(give_up, deadline)
        while True:
            if alive is not None and not alive():
                raise TransportClosed(
                    f"peer of {self.name!r} died before the connection "
                    "could be established"
                )
            try:
                self._connect_once(min(backoff * 4, 2.0))
                return
            except (HandshakeRefused, WireError):
                raise
            except (OSError, TransportClosed):
                if time.monotonic() >= give_up:
                    raise TransportClosed(
                        f"{self.name!r} could not connect to "
                        f"{self.address} within {self.connect_timeout:.1f}s"
                    ) from None
                time.sleep(min(backoff, max(0.0, give_up - time.monotonic())))
                backoff = min(backoff * 2, MAX_BACKOFF)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def _route(self, frames) -> None:
        for frame in frames:
            if isinstance(frame, Ping):
                continue  # liveness only; _last_recv already refreshed
            self._inbound.append(frame)

    def _want_events(self) -> int:
        events = selectors.EVENT_READ
        if self._outbox:
            events |= selectors.EVENT_WRITE
        return events

    def pump(self, timeout: float = 0.0) -> bool:
        """Advance socket I/O; True when any frame or byte progressed.

        Public so single-threaded tests (and the worker's idle loop)
        can interleave endpoints explicitly.  ``timeout`` bounds the
        selector wait, not the work done.
        """
        if not self.connected:
            return False
        now = time.monotonic()
        # Heartbeat: queue a ping when the send side has been idle.
        if (
            not self._outbox
            and now - self._last_send >= self.heartbeat_interval
        ):
            self._outbox.push(
                encode_frame(Ping(), max_bytes=self.max_frame_bytes),
                control=True,
            )
        if (
            self.heartbeat_timeout is not None
            and now - self._last_recv > self.heartbeat_timeout
        ):
            self._drop_connection()  # silent peer: force a re-dial
            return True
        events = self._want_events()
        if events != self._registered_events:
            self._selector.modify(self._sock, events)
            self._registered_events = events
        ready = self._selector.select(timeout)
        progressed = False
        readable = any(mask & selectors.EVENT_READ for _, mask in ready)
        if readable:
            progressed |= self._read_ready()
        if self.connected and self._outbox:
            progressed |= self._flush_some()
        return progressed

    def _read_ready(self) -> bool:
        progressed = False
        while self.connected:
            try:
                data = self._sock.recv(1 << 18)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop_connection()
                return True
            if not data:
                self._drop_connection()
                return True
            self._last_recv = time.monotonic()
            self.bytes_received += len(data)
            progressed = True
            try:
                self._route(self._decoder.feed(data))
            except WireError:
                self._drop_connection()
                raise
            if len(data) < (1 << 18):
                break
        self._maybe_sever_recv()
        return progressed

    def _flush_some(self) -> bool:
        progressed = False
        while self.connected and self._outbox:
            buffers = self._outbox.buffers()
            try:
                written = self._sock.sendmsg(buffers)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop_connection()
                return True
            if written:
                self._last_send = time.monotonic()
                self.bytes_sent += written
                self._outbox.advance(written)
                progressed = True
            else:  # pragma: no cover - defensive
                break
        return progressed

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def _maybe_die(self) -> None:
        limit = self.fault.get("kill_after_sends")
        if limit is None or self.sent < int(limit):
            return
        marker = self.fault.get("once_marker")
        if marker is not None and not create_once(marker):
            return
        import os

        from repro.dist.transport import FAULT_EXIT_CODE

        os._exit(FAULT_EXIT_CODE)

    def _maybe_sever_send(self) -> None:
        limit = self.fault.get("sever_after_sends")
        if limit is None or self.sent < int(limit) or not self.connected:
            return
        marker = self.fault.get("sever_marker")
        if marker is not None and not create_once(marker):
            return
        self._severed_sends += 1
        self._drop_connection()

    def _maybe_sever_recv(self) -> None:
        limit = self.fault.get("sever_after_recvs")
        if limit is None or self.received < int(limit) or not self.connected:
            return
        marker = self.fault.get("sever_marker")
        if marker is not None and not create_once(marker):
            return
        self._drop_connection()

    # ------------------------------------------------------------------
    # The transport surface
    # ------------------------------------------------------------------
    def send(self, frame, *, alive=None, timeout: float | None = None) -> None:
        """Queue ``frame`` and block until the kernel accepted its bytes.

        Blocking here *is* the backpressure: a stalled peer fills the
        socket buffers and the send waits, polling ``alive`` and
        honoring ``timeout`` (on timeout the frame stays queued and a
        later send or pump completes it — wire streams cannot un-send a
        partial frame).
        """
        if self._closed:
            raise TransportClosed(f"{self.name!r} is closed")
        delay = self.fault.get("delay_send")
        if delay:
            time.sleep(float(delay))
        self._maybe_die()
        self._maybe_sever_send()
        drop = self.fault.get("drop_sends")
        if drop is not None and self.dropped_frames < int(drop):
            self.dropped_frames += 1
            return
        entry = self._outbox.push(
            encode_frame(frame, max_bytes=self.max_frame_bytes)
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        blocked_at = None
        while not entry["done"]:
            if not self.connected:
                self._ensure_connected(alive=alive, deadline=deadline)
            self.pump(self.poll_interval if blocked_at is not None else 0.0)
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
        self.sent += 1

    def recv(self, *, alive=None, timeout: float | None = None):
        """Next frame, or ``None`` when ``timeout`` expires.

        Reconnects severed connections transparently; raises
        :class:`TransportClosed` when ``alive()`` reports the peer dead
        (after one last drain) or reconnection is refused.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._inbound:
                return self._take_inbound()
            if self._closed:
                raise TransportClosed(f"{self.name!r} is closed")
            if not self.connected:
                if alive is not None and not alive():
                    raise TransportClosed(
                        f"peer of {self.name!r} died with the connection down"
                    )
                self._ensure_connected(alive=alive, deadline=deadline)
                continue
            self.pump(self.poll_interval)
            if self._inbound:
                continue
            if alive is not None and not alive():
                self.pump(0.0)  # one last non-blocking look
                if self._inbound:
                    continue
                raise TransportClosed(
                    f"peer of {self.name!r} died with the stream empty"
                )
            if deadline is not None and time.monotonic() >= deadline:
                return None

    def try_recv(self):
        """Non-blocking :meth:`recv`; ``None`` when nothing is ready."""
        if not self._inbound and self.connected:
            self.pump(0.0)
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
            "reconnects": int(self.reconnects),
            "dropped_frames": int(self.dropped_frames),
            "bytes_sent": int(self.bytes_sent),
            "bytes_received": int(self.bytes_received),
        }

    def close(self, *, linger: float = 5.0) -> None:
        """Flush what the kernel will take, then close the socket."""
        if self._closed:
            return
        deadline = time.monotonic() + linger
        while (
            self.connected and self._outbox
            and time.monotonic() < deadline
        ):
            self.pump(self.poll_interval)
        self._drop_connection()
        self._selector.close()
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self.connected else "disconnected"
        return (
            f"SocketTransport({self.name!r}, {state}, sent={self.sent}, "
            f"received={self.received}, reconnects={self.reconnects})"
        )

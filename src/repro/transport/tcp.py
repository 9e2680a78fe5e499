"""Framed request/response messaging over real TCP sockets.

All the real (non-simulated) GriddLeS services — the GNS server, the
Grid Buffer server and the GridFTP-like file server — speak framed
request/reply RPC in one format: a fixed 14-byte preamble, a
varint-packed field table (the paper's SOAP envelope role:
self-describing, one firewall-friendly channel), the raw payload, and
a crc32 trailer over the payload (see :mod:`repro.transport.wire`).
Every frame carries the trailer from the first frame of a connection;
there is nothing to negotiate.

The public ``RpcServer`` is the async-native engine from
:mod:`repro.transport.aio` (one event loop, no thread per
connection).  :class:`RpcClient` is a blocking, pooled client — the
sync facade every service client uses.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from .. import faults, ioutil, obs
from .wire import (
    CRC_TRAILER_SIZE,
    MAX_HEADER,
    PREAMBLE_SIZE,
    TRACE_KEY,
    IntegrityError,
    WireError,
    build_binary_frame,
    crc_trailer,
    finish_frame,
    unpack_preamble,
)

__all__ = [
    "MAX_HEADER",
    "FrameError",
    "IntegrityError",
    "RpcServer",
    "RpcClient",
    "RpcError",
    "RetryPolicy",
    "PoolTimeout",
    "ClientClosedError",
    "IDEMPOTENT_OPS",
]

_CLIENT_CALLS = obs.counter(
    "rpc_client_calls_total", "RPC round trips issued by clients", labelnames=("op",)
)
_CLIENT_ERRORS = obs.counter(
    "rpc_client_errors_total",
    "Client RPC failures by error kind",
    labelnames=("op", "kind"),
)
_SERVER_REQUESTS = obs.counter(
    "rpc_server_requests_total",
    "Requests dispatched by servers, by op and outcome",
    labelnames=("op", "status"),
)
_CLIENT_RETRIES = obs.counter(
    "rpc_retries_total",
    "Connection-level RPC failures recovered by redial + retry",
    labelnames=("op",),
)

#: Default RPC timeout; tests shrink it via REPRO_RPC_TIMEOUT so a hung
#: peer fails a test in seconds rather than stalling the whole suite.
DEFAULT_RPC_TIMEOUT = float(os.environ.get("REPRO_RPC_TIMEOUT", "30.0"))

#: Default connection-pool width per RpcClient.  The framing protocol
#: is strict request/reply, so in-flight depth equals connections; a
#: small pool lets one client carry concurrent calls (read-ahead
#: windows, store fan-out) without serialising behind a single lock.
DEFAULT_POOL_CONNECTIONS = max(1, int(os.environ.get("REPRO_RPC_POOL", "4")))

#: Payloads at or above this size are sent via ``socket.sendmsg``
#: (gather write) instead of being copied into one contiguous frame.
_SENDMSG_THRESHOLD = 64 * 1024

#: Connection-level retries after the first attempt (idempotent ops only).
DEFAULT_RPC_RETRIES = max(0, int(os.environ.get("REPRO_RPC_RETRIES", "3")))

#: Ops that are safe to replay after a connection-level failure because
#: re-running them cannot corrupt state: reads, probes, registrations
#: that early-return when already applied, and interval-set writes where
#: the same (offset, bytes) lands in the same place.  ``gb.write`` /
#: ``gb.write_multi`` are deliberately absent — they only become
#: retryable when the caller attaches a dedupe token and passes
#: ``retryable=True`` (see GridBufferClient).
IDEMPOTENT_OPS: FrozenSet[str] = frozenset(
    {
        # Ops plane (read-only probes)
        "_obs.health",
        "_obs.metrics",
        "_obs.spans_tail",
        # GridFTP-like file server
        "size",
        "exists",
        "get_block",
        "put_block",
        "checksum",
        "mkdirs",
        "pull_from",
        # Grid Buffer
        "gb.create",
        "gb.register_reader",
        "gb.read",
        "gb.read_multi",
        "gb.consume_multi",
        "gb.close_writer",
        "gb.stats",
        "gb.exists",
        "gb.abort",
        "gb.resume",
        "gb.high_water",
        # Cooperative cache peer reads are pure cache lookups.
        "gb.peer_read",
        # GNS
        "gns.resolve",
        "gns.list",
        "gns.remove",
        # A watch is a read of the change log at ``from_revision``;
        # replaying it after a redial returns the same (or a later)
        # batch, so clients resume mid-watch across server death.
        # ``gns.txn`` is deliberately absent — it only becomes
        # retryable when the caller attaches a dedupe token (see
        # GnsClient.txn).
        "gns.watch",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for connection-level RPC retries.

    ``retries`` is the number of *re*-attempts after the first try.
    Delay before the Nth retry is ``base * multiplier**(N-1)`` capped at
    ``max_delay``, stretched by up to ``jitter`` fraction (drawn from
    the client's RNG, so a seeded client backs off deterministically).
    """

    retries: int = DEFAULT_RPC_RETRIES
    base: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def backoff(self, attempt: int, rng: random.Random) -> float:
        delay = min(self.max_delay, self.base * self.multiplier ** (attempt - 1))
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


class PoolTimeout(TimeoutError):
    """Checkout timed out waiting for a free pooled connection."""


class ClientClosedError(ConnectionError):
    """The client was close()d while this call was connecting."""


class FrameError(ConnectionError):
    """Malformed frame or closed connection mid-frame."""


class RpcError(RuntimeError):
    """Remote handler signalled an error."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


def _send_prebuilt(
    sock: socket.socket, scratch: bytearray, payload: memoryview, trailer: bytes = b""
) -> None:
    """Send a frame whose header is already encoded into ``scratch``.

    Small payloads are appended to the scratch buffer for one
    contiguous ``sendall`` (one syscall, no new buffer); large ones go
    out via a gather write so a pre-assembled reply is never copied.
    ``trailer`` (the CRC bytes of a checksummed frame) rides the same
    syscall in both regimes.
    """
    if len(payload) < _SENDMSG_THRESHOLD or not hasattr(sock, "sendmsg"):
        scratch += payload
        if trailer:
            scratch += trailer
        sock.sendall(scratch)
        return
    hview = memoryview(scratch)
    try:
        segments: List[memoryview] = [hview, payload]
        if trailer:
            segments.append(memoryview(trailer))
        total = sum(len(seg) for seg in segments)
        sent = sock.sendmsg(segments)
        while sent < total:
            skip = sent
            pending: List[memoryview] = []
            for seg in segments:
                if skip >= len(seg):
                    skip -= len(seg)
                    continue
                pending.append(seg[skip:] if skip else seg)
                skip = 0
            sent += sock.sendmsg(pending)
    finally:
        # Release before returning: a live export would make the next
        # frame's buffer reuse (del scratch[:]) raise BufferError.
        hview.release()


class _Conn:
    """One pooled socket plus its reusable receive/send scratch buffers.

    ``rbuf`` batches the reply preamble + header + small payloads into
    a single ``recv`` syscall; ``scratch`` is the preallocated send
    header buffer, so the steady-state call path allocates no per-frame
    header bytes in either direction.
    """

    __slots__ = ("sock", "rbuf", "scratch")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rbuf = bytearray()
        self.scratch = bytearray(256)


def _conn_fill(conn: _Conn, n: int) -> None:
    """Ensure at least ``n`` bytes are buffered on ``conn``."""
    buf = conn.rbuf
    sock = conn.sock
    while len(buf) < n:
        chunk = sock.recv(65536)
        if not chunk:
            raise FrameError(f"connection closed with {n - len(buf)} bytes outstanding")
        buf += chunk


def _conn_take(conn: _Conn, n: int) -> bytes:
    out = bytes(conn.rbuf[:n])
    del conn.rbuf[:n]
    return out


def _conn_recv_payload(conn: _Conn, n: int) -> bytes:
    """Payload receive: drain buffered bytes, then ``recv_into`` the rest."""
    if n == 0:
        return b""
    buf = conn.rbuf
    if len(buf) >= n:
        return _conn_take(conn, n)
    out = bytearray(n)
    have = len(buf)
    out[:have] = buf
    del buf[:]
    view = memoryview(out)
    got = have
    while got < n:
        r = conn.sock.recv_into(view[got:], n - got)
        if not r:
            raise FrameError(f"connection closed with {n - got} bytes outstanding")
        got += r
    view.release()
    return bytes(out)


def _conn_send_frame(conn: _Conn, header: Dict[str, Any], payload, corrupter=None) -> None:
    """Send one frame.

    ``corrupter`` (a :class:`repro.faults.FaultInjector`, chaos only)
    flips payload bits *after* the CRC trailer is computed — modelling
    corruption on the wire, which is exactly what the trailer exists to
    catch.
    """
    payload = memoryview(payload)
    build_binary_frame(conn.scratch, header, len(payload))
    trailer = crc_trailer(payload)
    if corrupter is not None and len(payload):
        payload = memoryview(corrupter.corrupt_bytes(bytes(payload)))
    _send_prebuilt(conn.sock, conn.scratch, payload, trailer)


def _conn_recv_frame(conn: _Conn) -> Tuple[Dict[str, Any], bytes]:
    """Receive one reply, verifying its CRC trailer.

    A malformed preamble fails as :class:`FrameError` before any byte
    past it is awaited.  A CRC mismatch raises :class:`IntegrityError`
    *after* the full frame is consumed, so the failure is about the
    data, not framing.
    """
    _conn_fill(conn, PREAMBLE_SIZE)
    try:
        opid, flen, plen = unpack_preamble(conn.rbuf)
    except WireError as exc:
        raise FrameError(f"bad frame: {exc}") from exc
    del conn.rbuf[:PREAMBLE_SIZE]
    _conn_fill(conn, flen)
    fields = _conn_take(conn, flen)
    payload = _conn_recv_payload(conn, plen)
    trailer = _conn_recv_payload(conn, CRC_TRAILER_SIZE)
    try:
        return finish_frame(opid, fields, payload, trailer), payload
    except WireError as exc:
        raise FrameError(f"bad frame header: {exc}") from exc


class RpcClient:
    """Blocking client carrying a small pool of connections to one server.

    The framing protocol is strict request/reply per connection, so the
    pool is what allows *concurrent in-flight calls* on one client:
    each :meth:`call` checks a connection out, runs its round trip with
    no client-wide lock held, and checks it back in.  Up to
    ``max_connections`` callers proceed in parallel; excess callers
    wait for a free connection.  Connections are created lazily, so a
    client used from one thread still holds exactly one socket.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        max_connections: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self._addr = (host, port)
        self._peer = f"{host}:{port}"
        self._timeout = DEFAULT_RPC_TIMEOUT if timeout is None else timeout
        self._max = max(1, int(max_connections if max_connections is not None
                               else DEFAULT_POOL_CONNECTIONS))
        self._retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random()
        self._cv = threading.Condition()
        self._idle: List[_Conn] = []
        self._inflight: Set[_Conn] = set()   # connections currently checked out
        self._active = 0
        self._gen = 0             # bumped by close(): stale checkouts die

    def clone(self) -> "RpcClient":
        """A fresh, unconnected client to the same server.

        Background pipelines (prefetcher threads, parallel streams) use
        clones when they want connections whose blocking calls can
        never contend with the owner's pool at all.
        """
        return RpcClient(
            *self._addr,
            timeout=self._timeout,
            max_connections=self._max,
            retry=self._retry,
        )

    def _new_conn(self) -> _Conn:
        sock = socket.create_connection(self._addr, timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Conn(sock)

    def _checkout(self) -> Tuple[_Conn, int]:
        deadline = time.monotonic() + self._timeout if self._timeout else None
        with self._cv:
            while True:
                if self._idle:
                    self._active += 1
                    conn = self._idle.pop()
                    self._inflight.add(conn)
                    return conn, self._gen
                if self._active < self._max:
                    self._active += 1
                    gen = self._gen
                    break
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise PoolTimeout(
                        f"no free RPC connection to {self._peer} within "
                        f"{self._timeout}s (pool={self._max}, in_flight={self._active}, "
                        f"idle={len(self._idle)}, gen={self._gen})"
                    )
                self._cv.wait(timeout=remaining)
        # Connect outside the lock: a slow handshake must not block the pool.
        try:
            conn = self._new_conn()
        except BaseException:
            with self._cv:
                self._active -= 1
                self._cv.notify()
            raise
        with self._cv:
            if gen != self._gen:
                # close()/close_all() raced our connect: honour it.  Without
                # this re-check the fresh socket joins _inflight *after* the
                # close snapshot and survives a shutdown that promised to
                # kill every in-flight call.
                self._active -= 1
                self._cv.notify()
                try:
                    conn.sock.close()
                except OSError:  # pragma: no cover  # fault-ok: best-effort close
                    pass
                raise ClientClosedError(
                    f"RPC client to {self._peer} closed during connect "
                    f"(gen {gen} -> {self._gen})"
                )
            self._inflight.add(conn)
        return conn, gen

    def _checkin(self, conn: _Conn, gen: int) -> None:
        with self._cv:
            self._active -= 1
            self._inflight.discard(conn)
            if gen == self._gen:
                self._idle.append(conn)
                self._cv.notify()
                return
            self._cv.notify()
        conn.sock.close()  # client was close()d while this call was in flight

    def _discard(self, conn: _Conn, gen: int) -> None:
        with self._cv:
            self._active -= 1
            self._inflight.discard(conn)
            self._cv.notify()
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover  # fault-ok: close never meaningfully fails
            pass

    def call(
        self,
        op: str,
        header: Optional[Dict[str, Any]] = None,
        payload: bytes = b"",
        retryable: Optional[bool] = None,
    ) -> Tuple[Dict[str, Any], bytes]:
        """One round trip; raises :class:`RpcError` on remote failure.

        Connection-level failures (``OSError``/``FrameError``) discard
        the pooled socket and, for idempotent ops, redial and replay the
        call with exponential backoff.  ``retryable`` overrides the
        :data:`IDEMPOTENT_OPS` table — callers that attach their own
        dedupe token (e.g. ``gb.write_multi``) pass ``True``.  An
        :class:`RpcError` reply is never retried: the request was
        delivered and the server answered.
        """
        msg = dict(header or {})
        msg["op"] = op
        _CLIENT_CALLS.labels(op=op).inc()
        tracer = obs.get_tracer()
        span = None
        if tracer.sink is not None:
            # One span per logical call (retries included): its duration
            # is the caller-observed latency, and the handler span on the
            # remote side parents under it via the _trace header.  Stack-
            # free because no local child spans open under it.
            span = tracer.start_span(
                "rpc.client", parent=tracer.current_context(), op=op, peer=self._peer
            )
            msg[TRACE_KEY] = span.context.to_wire()
        try:
            reply, data = self._roundtrip(msg, op, payload, retryable)
        except BaseException as exc:
            if span is not None:
                tracer.finish_span(span, error=f"{type(exc).__name__}: {exc}")
            raise
        if span is not None:
            tracer.finish_span(span)
        return reply, data

    def _roundtrip(
        self,
        msg: Dict[str, Any],
        op: str,
        payload: bytes,
        retryable: Optional[bool],
    ) -> Tuple[Dict[str, Any], bytes]:
        if retryable is None:
            retryable = op in IDEMPOTENT_OPS
        attempts = 1 + (self._retry.retries if retryable else 0)
        attempt = 0
        while True:
            attempt += 1
            conn = None
            gen = -1
            try:
                conn, gen = self._checkout()
                corrupter = None
                injector = faults.ACTIVE
                if injector is not None:
                    verdict = injector.fire("rpc.client", op, self._peer)
                    if verdict == "corrupt":
                        # Flip bits in the outgoing request payload (after
                        # checksumming): the socket stays up; only the
                        # receiver's CRC check can notice.
                        corrupter = injector
                    elif verdict is not None:
                        # "close"/"drop": kill the connection under the call so
                        # the real send/recv path fails organically.
                        try:
                            conn.sock.shutdown(socket.SHUT_RDWR)
                        except OSError:  # fault-ok: socket already dead
                            pass
                _conn_send_frame(conn, msg, payload, corrupter)
                reply, data = _conn_recv_frame(conn)
            except (PoolTimeout, ClientClosedError):
                raise  # pool exhaustion / shutdown: retrying cannot help
            except (OSError, FrameError) as exc:
                if conn is not None:
                    self._discard(conn, gen)
                if isinstance(exc, IntegrityError):
                    # The peer is healthy, the data was corrupted: count
                    # the detection and re-request the frame.
                    ioutil.count_integrity_error("rpc.client", "retry")
                _CLIENT_ERRORS.labels(op=op, kind=type(exc).__name__).inc()
                with self._cv:
                    # A generation bump means *our own* close()/close_all()
                    # killed this socket: the owner wants shutdown, so
                    # redialing would undo it.  Only external failures retry.
                    closed_locally = gen != -1 and gen != self._gen
                if closed_locally or attempt >= attempts:
                    raise
                _CLIENT_RETRIES.labels(op=op).inc()
                time.sleep(self._retry.backoff(attempt, self._rng))
                continue
            break
        self._checkin(conn, gen)
        if not reply.get("ok", False):
            kind = reply.get("error", "remote-error")
            _CLIENT_ERRORS.labels(op=op, kind=kind).inc()
            raise RpcError(kind, reply.get("message", ""))
        return reply, data

    def close(self) -> None:
        """Close idle connections now; in-flight ones close on check-in.

        Closing also unblocks calls parked in a server-side wait (their
        socket dies under them), which is what lets reader shutdown
        join background threads that are mid-RPC.
        """
        with self._cv:
            self._gen += 1
            idle, self._idle = self._idle, []
            self._cv.notify_all()
        for conn in idle:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover  # fault-ok: best-effort close
                pass

    def close_all(self) -> None:
        """Hard close: also shut down sockets currently mid-round-trip.

        A plain :meth:`close` leaves checked-out sockets alive until
        their call returns; this forces those calls to fail *now*,
        which is how reader teardown unblocks a background thread
        parked in a server-side blocking read.
        """
        with self._cv:
            self._gen += 1
            idle, self._idle = self._idle, []
            inflight = list(self._inflight)
            self._cv.notify_all()
        for conn in idle:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover  # fault-ok: best-effort close
                pass
        for conn in inflight:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # fault-ok: socket already dead
                pass

    def __enter__(self) -> "RpcClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def __getattr__(name: str):
    # The public RpcServer is the async-native engine in aio.py, which
    # itself imports this module's primitives (exceptions, counters,
    # retry policy).  Resolving the name lazily via PEP 562 breaks the
    # import cycle regardless of which module is imported first.
    if name == "RpcServer":
        from .aio import AsyncRpcServer

        return AsyncRpcServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Client-side Grid Buffer API.

Two layers:

* :class:`GridBufferClient` — thin RPC mirror of the service methods,
  one per (process, server) pair.  Its transport is a *pooled*
  :class:`~repro.transport.tcp.RpcClient`, so concurrent calls (a
  read-ahead window, a writer flushing while a stats poll runs) fly in
  parallel instead of serialising behind one connection lock.  Multi-
  block writes, windowed reads and shared-cache acks use the vectored
  ops (``gb.write_multi``, ``gb.read_multi``, ``gb.consume_multi``).
* :class:`BufferWriter` / :class:`BufferReader` — file-like adapters
  the FM's Grid Buffer Client uses.  They drive the FM's one
  pipelining layer (:mod:`repro.core.remote_io`): the writer batches
  small writes in a :class:`~repro.core.remote_io.RunBatcher` behind a
  *bounded flush deadline* (downstream visibility lags by at most the
  deadline); the reader feeds a
  :class:`~repro.core.remote_io.ReadAheadWindow` whose fetch tries
  cooperative-cache peers before the origin, fills the shared cache
  and stores the origin's peer hints.

Because a blocking remote read parks a server request, every reader
uses its own demand connection, and the read-ahead window owns a
separate pooled connection set, so a request blocked server-side never
head-of-line blocks demand traffic.  Co-located readers of one
broadcast stream can share a per-process block cache: each block is
fetched from the server once and the other readers acknowledge their
consumption with cheap vectored ``gb.consume_multi`` calls, keeping
delete-on-read GC and per-reader lag gauges exact.
"""

from __future__ import annotations

import io
import os
import threading
import time
import uuid
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import faults, ioutil, obs
from ..core.remote_io import ReadAheadWindow, RunBatcher
from ..ioutil import ReadIntoFromRead
from ..transport.tcp import RpcClient, RpcError
from .protocol import (
    DEFAULT_READ_BUDGET,
    OP_ABORT,
    OP_CLOSE_WRITER,
    OP_CONSUME_MULTI,
    OP_CREATE,
    OP_DROP,
    OP_EXISTS,
    OP_HIGH_WATER,
    OP_PEER_READ,
    OP_READ,
    OP_READ_MULTI,
    OP_REGISTER_READER,
    OP_RESUME,
    OP_STATS,
    OP_WRITE,
    OP_WRITE_MULTI,
)

__all__ = ["GridBufferClient", "BufferWriter", "BufferReader"]


def _open_poll_interval() -> float:
    """Poll cadence while waiting for a stream to be created.

    Read from the environment *per call* (not at import time) so tests
    and deployments can retune it without reimporting the module.
    """
    return float(os.environ.get("REPRO_BUFFER_OPEN_POLL", "0.01"))


#: Upper bound (seconds) on how long coalesced writer bytes stay local.
DEFAULT_FLUSH_DEADLINE = 0.02


_READAHEAD_HITS = obs.counter(
    "buffer_readahead_hits_total",
    "Client reads served from the read-ahead window",
    labelnames=("stream",),
)
_WRITE_RPCS = obs.counter(
    "buffer_write_rpcs_total",
    "WRITE RPCs issued by client-side writers",
    labelnames=("stream",),
)
_DEADLINE_FLUSHES = obs.counter(
    "buffer_flush_deadline_total",
    "Coalesced writer runs pushed out by the flush deadline",
    labelnames=("stream",),
)
_SHARED_HITS = obs.counter(
    "buffer_shared_cache_hits_total",
    "Reads served from the per-process shared block cache",
    labelnames=("stream",),
)
_READER_RESUMES = obs.counter(
    "buffer_reader_resumes_total",
    "Reader connections re-established (redial + re-register + resume)",
    labelnames=("stream",),
)
_WRITER_ABORTS = obs.counter(
    "buffer_writer_aborts_total",
    "Streams marked failed by a writer-side abort",
    labelnames=("stream",),
)
_PEER_HITS = obs.counter(
    "peer_cache_hits_total",
    "Read-ahead fetches served by a cooperative-cache peer",
    labelnames=("stream",),
)
_PEER_FETCH_BYTES = obs.counter(
    "peer_fetch_bytes_total",
    "Bytes fetched from cooperative-cache peers instead of the origin",
    labelnames=("stream",),
)
_PEER_DEMOTIONS = obs.counter(
    "peer_demotions_total",
    "Peers demoted by a fetcher (error/timeout/checksum/miss)",
    labelnames=("reason",),
)

#: Pending holder advertisements flush once newly cached bytes cross
#: this threshold (evictions flush on the next piggyback regardless).
_ADV_FLUSH_BYTES = 256 * 1024

#: Peers answer from RAM or error immediately, so peer fetches run on a
#: short timeout — a dead peer should demote fast, not stall the window.
_PEER_TIMEOUT = 5.0

#: Hint fan-out requested from the origin per read.
_HINT_K = 3

#: Misses (peer lacked a hinted range) tolerated before demotion;
#: errors, timeouts and checksum mismatches demote immediately.
_MISS_STRIKES = 3

#: Peer fetches span this many window chunks per request.  Peers serve
#: from RAM, so the per-request cost (framing, crc, loop dispatch) —
#: not bandwidth — bounds a popular holder; bigger spans amortise it.
_PEER_SPAN_CHUNKS = 4

#: "Drop everything" range end used to withdraw a holder registration.
_DROP_ALL_END = 1 << 62


# ---------------------------------------------------------------------------
# Shared per-process block cache (broadcast dedup)
# ---------------------------------------------------------------------------


class _SharedStreamCache:
    """Recently fetched runs of one remote stream, shared process-wide.

    R co-located readers of the same broadcast stream fetch each block
    from the server once; the other R-1 serve it from here and batch
    ``gb.consume_multi`` acknowledgements instead of re-transferring.  Runs
    are evicted LRU once ``capacity_bytes`` is exceeded — a straggler
    that falls too far behind simply falls back to real reads (served
    by the stream's cache file server-side).
    """

    def __init__(
        self, capacity_bytes: int = 8 * 1024 * 1024, gen: int = 0, name: str = ""
    ):
        self._capacity = max(1, capacity_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, bytes]" = OrderedDict()
        # crc32 of each run, taken at insert time.  Serving paths
        # re-verify against it, so a run that rots in memory (or is
        # poisoned by the chaos injector) is discarded — the reader
        # falls through to the origin — instead of being handed to a
        # local sibling or a remote peer.
        self._crcs: Dict[int, int] = {}
        self._index: List[int] = []
        self._max_len = 0
        self._bytes = 0
        self.eof_total: Optional[int] = None
        self.refs = 0
        self.hits = 0
        self.inserts = 0
        #: Stream generation this cache mirrors (part of the registry
        #: key): a re-created stream gets a fresh cache, never stale
        #: bytes from the previous incarnation.
        self.gen = gen
        #: Stream name, used only to label fault-injection hooks and
        #: discard events.
        self.name = name
        #: "host:port" of this process's peer server once a peer-enabled
        #: reader attached; None while the cache is private.
        self.peer_addr: Optional[str] = None
        # Pending consume acknowledgements from *all* co-located
        # readers, merged here so one ``gb.consume_multi`` frame (and
        # one server-side GC pass) covers the whole group per flush.
        self._acks: Dict[str, List[List[int]]] = {}
        self._ack_bytes = 0
        self.ack_flushes = 0
        # Pending holder advertisement: ranges newly cached / LRU-evicted
        # since the last flush, piggybacked onto consume acks so the
        # origin's holder map tracks what this process can actually
        # serve to peers.
        self._pending_holds: List[List[int]] = []
        self._pending_drops: List[List[int]] = []
        self._pending_hold_bytes = 0

    def ack(
        self, reader_id: str, start: int, end: int, flush_bytes: int
    ) -> Optional[List[Tuple[str, List[List[int]]]]]:
        """Queue a consumed range; returns the batch to send once the
        aggregate (across all readers) crosses ``flush_bytes``."""
        if end <= start:
            return None
        with self._lock:
            runs = self._acks.setdefault(reader_id, [])
            if runs and runs[-1][1] == start:
                runs[-1][1] = end
            else:
                runs.append([start, end])
            self._ack_bytes += end - start
            if self._ack_bytes < flush_bytes:
                return None
            return self._drain_acks_locked()

    def drain_acks(self) -> Optional[List[Tuple[str, List[List[int]]]]]:
        with self._lock:
            return self._drain_acks_locked()

    def _drain_acks_locked(self) -> Optional[List[Tuple[str, List[List[int]]]]]:
        if not self._acks:
            return None
        entries = [(rid, runs) for rid, runs in self._acks.items()]
        self._acks = {}
        self._ack_bytes = 0
        self.ack_flushes += 1
        return entries

    def note_eof(self, total: Optional[int]) -> None:
        if total is None:
            return
        with self._lock:
            self.eof_total = total if self.eof_total is None else min(self.eof_total, total)

    def put(self, offset: int, data: bytes, advertise: bool = True) -> None:
        """Cache a run; ``advertise=False`` keeps it out of the holder map.

        Peer-fetched runs are cached (local siblings benefit) but never
        advertised: only origin-fetched bytes make a process a holder.
        Otherwise holders beget holders and fetches relay through
        chains of peers — each hop re-pays serve+verify cost — instead
        of going one hop to a process that actually read from the
        origin.
        """
        if not data:
            return
        data = bytes(data)
        # Checksum *before* the poison hook: a "corrupt" rule on
        # gb.cache flips a bit in the stored copy while the recorded
        # crc stays honest — exactly the shape of real memory rot, and
        # what the serve-time verify in get()/peek_range() must catch.
        crc = ioutil.crc32(data)
        injector = faults.ACTIVE
        if injector is not None:
            if injector.fire("gb.cache", "put", self.name) == "corrupt":
                data = injector.corrupt_bytes(data)
        with self._lock:
            if offset in self._entries:
                self._entries.move_to_end(offset)
                return
            self._entries[offset] = data
            self._crcs[offset] = crc
            insort(self._index, offset)
            self._max_len = max(self._max_len, len(data))
            self._bytes += len(data)
            self.inserts += 1
            if advertise:
                self._note_range_locked(self._pending_holds, offset, offset + len(data))
                self._pending_hold_bytes += len(data)
            while self._bytes > self._capacity and len(self._entries) > 1:
                old_off, old = self._entries.popitem(last=False)
                self._crcs.pop(old_off, None)
                self._bytes -= len(old)
                i = bisect_left(self._index, old_off)
                if i < len(self._index) and self._index[i] == old_off:
                    del self._index[i]
                # Report the eviction on the next advertisement flush so
                # the origin stops hinting peers at bytes we dropped.
                self._note_range_locked(self._pending_drops, old_off, old_off + len(old))

    @staticmethod
    def _note_range_locked(runs: List[List[int]], start: int, end: int) -> None:
        if runs and runs[-1][1] == start:
            runs[-1][1] = end
        else:
            runs.append([start, end])

    def _verify_locked(self, off: int, data: bytes) -> bool:
        """Serve-time integrity check; a corrupt run is discarded.

        The discard is also queued as a holder-map *drop* so the origin
        stops hinting peers at bytes we can no longer vouch for, and
        the caller sees a plain miss — readers fall through to the
        origin, which is always authoritative.
        """
        want = self._crcs.get(off)
        if want is None or ioutil.crc32(data) == want:
            return True
        del self._entries[off]
        self._crcs.pop(off, None)
        self._bytes -= len(data)
        i = bisect_left(self._index, off)
        if i < len(self._index) and self._index[i] == off:
            del self._index[i]
        self._note_range_locked(self._pending_drops, off, off + len(data))
        ioutil.count_integrity_error("gb.cache", "discard")
        obs.event(
            "gb.cache_discard", stream=self.name, offset=off, length=len(data)
        )
        return False

    def take_adv(
        self, force: bool = False, threshold: int = _ADV_FLUSH_BYTES
    ) -> Optional[Tuple[List[List[int]], List[List[int]]]]:
        """Drain the pending (holds, drops) advertisement, or None.

        Without ``force``, holds accumulate until ``threshold`` bytes —
        advertisement is lazy — but any pending *drop* flushes eagerly:
        a stale "peer holds X" hint costs every hinted reader a miss.
        """
        with self._lock:
            if not self._pending_holds and not self._pending_drops:
                return None
            if (
                not force
                and not self._pending_drops
                and self._pending_hold_bytes < threshold
            ):
                return None
            holds, drops = self._pending_holds, self._pending_drops
            self._pending_holds, self._pending_drops = [], []
            self._pending_hold_bytes = 0
            return holds, drops

    def peek_range(self, pos: int, length: int) -> Optional[bytes]:
        """Cached bytes at ``pos`` (at most ``length``) for a peer read.

        Unlike :meth:`get` this does not promote the run in LRU order or
        count a local hit — remote demand should not be able to pin a
        run that local readers have moved past.  Contiguous runs are
        stitched up to ``length``: serving one big peer read instead of
        N small ones is what keeps a popular holder's event loop from
        saturating on per-request overhead.
        """
        if length <= 0:
            return None
        with self._lock:
            i = bisect_right(self._index, pos) - 1
            floor = pos - self._max_len
            start = None
            while i >= 0:
                off = self._index[i]
                if off < floor:
                    break
                data = self._entries.get(off)
                if data is not None and off <= pos < off + len(data):
                    start = i
                    break
                i -= 1
            if start is None:
                return None
            off = self._index[start]
            data = self._entries[off]
            if not self._verify_locked(off, data):
                return None
            parts = [data[pos - off : pos - off + length]]
            got = len(parts[0])
            end = off + len(data)
            for j in range(start + 1, len(self._index)):
                if got >= length:
                    break
                noff = self._index[j]
                if noff != end:
                    break
                ndata = self._entries[noff]
                if not self._verify_locked(noff, ndata):
                    # Serve the verified prefix; the peer re-requests
                    # the rest (discard shrank _index, so stop here).
                    break
                take = min(length - got, len(ndata))
                parts.append(ndata[:take])
                got += take
                end = noff + len(ndata)
            return parts[0] if len(parts) == 1 else b"".join(parts)

    def get(self, pos: int) -> Optional[bytes]:
        """Bytes from ``pos`` to the end of a covering run, or None."""
        with self._lock:
            i = bisect_right(self._index, pos) - 1
            floor = pos - self._max_len
            while i >= 0:
                off = self._index[i]
                if off < floor:
                    break
                data = self._entries.get(off)
                if data is not None and off <= pos < off + len(data):
                    if not self._verify_locked(off, data):
                        return None
                    self._entries.move_to_end(off)
                    self.hits += 1
                    return data[pos - off :] if off != pos else data
                i -= 1
            return None

    def covers(self, pos: int) -> bool:
        with self._lock:
            i = bisect_right(self._index, pos) - 1
            floor = pos - self._max_len
            while i >= 0:
                off = self._index[i]
                if off < floor:
                    break
                data = self._entries.get(off)
                if data is not None and off <= pos < off + len(data):
                    return True
                i -= 1
            return False


# Keyed (host, port, stream, generation): the generation makes a
# re-created stream (writer crash, drop + recreate) land in a *fresh*
# cache instead of being served the previous incarnation's bytes.
_SHARED_CACHES: Dict[Tuple[str, int, str, int], _SharedStreamCache] = {}
_SHARED_CACHES_LOCK = threading.Lock()


def _shared_cache_acquire(
    addr: Tuple[str, int], stream: str, gen: int = 0
) -> _SharedStreamCache:
    key = (addr[0], addr[1], stream, int(gen))
    with _SHARED_CACHES_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is None:
            cache = _SHARED_CACHES[key] = _SharedStreamCache(gen=int(gen), name=stream)
        cache.refs += 1
        return cache


def _shared_cache_release(addr: Tuple[str, int], stream: str, gen: int = 0) -> bool:
    """Drop one reference; True when the cache was the last and removed."""
    key = (addr[0], addr[1], stream, int(gen))
    with _SHARED_CACHES_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is not None:
            cache.refs -= 1
            if cache.refs <= 0:
                del _SHARED_CACHES[key]
                return True
        return False


class _PeerCacheServer:
    """Process-wide ``gb.peer_read`` endpoint over the shared caches.

    Started lazily by the first peer-enabled reader and never stopped
    (an idle server is one parked accept socket on the process-wide
    event loop — no threads).  The handler is registered ``inline``: a
    peer read is a lock + bisect + slice, never blocking, so it runs on
    the loop directly.  The async engine's ``rpc.server`` fault hook
    fires for it like any other op, which is what lets chaos rules
    target ``op=gb.peer_read`` with drop/close/delay.
    """

    _instance: Optional["_PeerCacheServer"] = None
    _instance_lock = threading.Lock()

    def __init__(self) -> None:
        from ..transport.aio import AsyncRpcServer

        self._rpc = AsyncRpcServer("127.0.0.1", 0)
        self._rpc.register(OP_PEER_READ, self._op_peer_read, inline=True)
        self._rpc.start()
        host, port = self._rpc.address
        self.addr = f"{host}:{port}"

    @classmethod
    def get(cls) -> "_PeerCacheServer":
        with cls._instance_lock:
            if cls._instance is None:
                cls._instance = cls()
            return cls._instance

    @staticmethod
    def _op_peer_read(header: Dict[str, Any], _payload: bytes):
        origin = str(header.get("origin", ""))
        name = str(header.get("name", ""))
        gen = int(header.get("gen") or 0)
        offset = int(header.get("offset", 0))
        length = int(header.get("length", 0))
        host, _, port_s = origin.rpartition(":")
        try:
            key = (host, int(port_s), name, gen)
        except ValueError:
            raise RpcError("bad-request", f"malformed origin {origin!r}") from None
        with _SHARED_CACHES_LOCK:
            cache = _SHARED_CACHES.get(key)
        data = cache.peek_range(offset, length) if cache is not None else None
        if not data:
            # Not an error worth retrying elsewhere in the transport:
            # the fetcher treats a miss as a hint gone stale.
            raise RpcError("peer-miss", f"{name}@{offset} not cached here")
        return {"crc": ioutil.crc32(data)}, data


# ---------------------------------------------------------------------------
# RPC mirror
# ---------------------------------------------------------------------------


class GridBufferClient:
    """RPC client for one Grid Buffer server.

    ``monitor``/``peer`` optionally feed every data-plane round trip
    into a :class:`~repro.core.trace.TransferMonitor`, which is what
    lets the read-ahead window size itself from *measured* link
    numbers instead of a guessed constant.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        max_connections: Optional[int] = None,
        monitor: Optional[Any] = None,
        peer: Optional[str] = None,
    ):
        self._addr = (host, port)
        self._timeout = timeout
        self._rpc = RpcClient(host, port, timeout=timeout, max_connections=max_connections)
        self.monitor = monitor
        self.peer = peer or host
        # Dedupe identity for write replay: every write batch carries
        # (token, seq); the service skips a (token, seq) it has already
        # applied, which is what makes gb.write/gb.write_multi safe to
        # retry after a lost *reply*.
        self._writer_token = uuid.uuid4().hex[:12]
        self._seq_lock = threading.Lock()
        self._next_seq = 0
        # Small per-peer RpcClient cache for cooperative-cache fetches;
        # peers answer from RAM, so these run on a short timeout.
        self._peer_rpcs: Dict[str, RpcClient] = {}
        self._peer_rpcs_lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        return self._addr

    def _fresh_connection(self, max_connections: int = 1) -> RpcClient:
        return RpcClient(*self._addr, timeout=self._timeout, max_connections=max_connections)

    def _record(self, op: str, nbytes: int, seconds: float) -> None:
        if self.monitor is not None:
            self.monitor.record(self.peer, op, nbytes, seconds)

    def _next_write_seq(self) -> int:
        with self._seq_lock:
            self._next_seq += 1
            return self._next_seq

    # -- service mirror ----------------------------------------------------
    def create_stream(
        self,
        name: str,
        n_readers: int = 1,
        capacity_bytes: Optional[int] = None,
        cache: bool = False,
    ) -> None:
        self._rpc.call(
            OP_CREATE,
            {
                "name": name,
                "n_readers": n_readers,
                "capacity_bytes": capacity_bytes,
                "cache": cache,
            },
        )

    def register_reader(self, name: str, reader_id: str) -> int:
        """Attach a reader; returns the stream generation."""
        return self.register_reader_ex(name, reader_id)[0]

    def register_reader_ex(
        self,
        name: str,
        reader_id: str,
        peer_hints: Optional[Tuple[str, int]] = None,
    ) -> Tuple[int, Optional[Dict[str, Any]]]:
        """:meth:`register_reader` plus an initial ``cached_at`` hint.

        With ``peer_hints=(own_peer_addr, k)`` the origin also returns
        holders of the stream's opening range, so a reader joining a
        warm broadcast never touches the origin data path at all.
        """
        header: Dict[str, Any] = {"name": name, "reader_id": reader_id}
        if peer_hints is not None:
            header["peer"] = peer_hints[0]
            header["peer_hints"] = int(peer_hints[1])
        reply, _ = self._rpc.call(OP_REGISTER_READER, header)
        hint = reply.get("cached_at")
        return int(reply["gen"]), (hint if isinstance(hint, dict) else None)

    def write(
        self, name: str, offset: int, data: bytes, timeout: Optional[float] = None
    ) -> Optional[str]:
        """Store one block; returns the server's stall reason, if any.

        The call carries a (token, seq) pair and is retried on
        connection failure — the service dedupes a replayed block.
        """
        t0 = time.perf_counter()
        reply, _ = self._rpc.call(
            OP_WRITE,
            {
                "name": name,
                "offset": offset,
                "timeout": timeout,
                "token": self._writer_token,
                "seq": self._next_write_seq(),
            },
            payload=data,
            retryable=True,
        )
        self._record("write", len(data), time.perf_counter() - t0)
        return reply.get("stall")

    def write_multi(
        self,
        name: str,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float] = None,
    ) -> Optional[str]:
        """Scatter several blocks in one ``gb.write_multi`` frame.

        A single block goes out as a plain ``gb.write``.  Returns the
        backpressure verdict from the reply header —
        ``"buffer_full"``/``"slow_reader"`` when the server had to stall
        this batch, ``None`` when it landed cleanly — so the caller's
        coalescer can adapt its batch limit.
        """
        runs = [(offset, data) for offset, data in runs if data]
        if not runs:
            return None
        if len(runs) == 1:
            offset, data = runs[0]
            return self.write(name, offset, data, timeout=timeout)
        header = {
            "name": name,
            "offsets": [offset for offset, _ in runs],
            "sizes": [len(data) for _, data in runs],
            "timeout": timeout,
            "token": self._writer_token,
            "seq": self._next_write_seq(),
        }
        payload = b"".join(data for _, data in runs)
        t0 = time.perf_counter()
        reply, _ = self._rpc.call(OP_WRITE_MULTI, header, payload, retryable=True)
        self._record("write_multi", len(payload), time.perf_counter() - t0)
        return reply.get("stall")

    def read(
        self,
        name: str,
        reader_id: str,
        offset: int,
        length: int,
        timeout: Optional[float] = None,
        rpc: Optional[RpcClient] = None,
    ) -> bytes:
        t0 = time.perf_counter()
        _, data = (rpc or self._rpc).call(
            OP_READ,
            {
                "name": name,
                "reader_id": reader_id,
                "offset": offset,
                "length": length,
                "timeout": timeout,
            },
        )
        self._record("read", len(data), time.perf_counter() - t0)
        return data

    def read_window(
        self,
        name: str,
        reader_id: str,
        offset: int,
        budget: int,
        min_bytes: int = 1,
        timeout: Optional[float] = None,
        rpc: Optional[RpcClient] = None,
    ) -> Tuple[bytes, Optional[int]]:
        """Windowed read: ``(data, stream_total_if_known)``.

        One reply carries as many contiguous bytes as the server has
        available at ``offset`` up to ``budget``.
        """
        data, total, _ = self.read_window_ex(
            name, reader_id, offset, budget, min_bytes=min_bytes, timeout=timeout, rpc=rpc
        )
        return data, total

    def read_window_ex(
        self,
        name: str,
        reader_id: str,
        offset: int,
        budget: int,
        min_bytes: int = 1,
        timeout: Optional[float] = None,
        rpc: Optional[RpcClient] = None,
        peer_hints: Optional[Tuple[str, int]] = None,
    ) -> Tuple[bytes, Optional[int], Optional[Dict[str, Any]]]:
        """:meth:`read_window` plus the server's ``cached_at`` hint.

        ``peer_hints=(own_peer_addr, k)`` asks the origin for up to
        ``k`` peers holding the requested-next ranges (excluding
        ourselves).  The returned hint is ``{"peers": [...], "start":
        int, "end": int}`` or None when no peer holds them.
        """
        header: Dict[str, Any] = {
            "name": name,
            "reader_id": reader_id,
            "offset": offset,
            "budget": budget,
            "min_bytes": min_bytes,
            "timeout": timeout,
        }
        if peer_hints is not None:
            header["peer"] = peer_hints[0]
            header["peer_hints"] = int(peer_hints[1])
        t0 = time.perf_counter()
        reply, data = (rpc or self._rpc).call(OP_READ_MULTI, header)
        self._record("read_multi", len(data), time.perf_counter() - t0)
        total = reply.get("total")
        hint = reply.get("cached_at")
        return (
            data,
            (int(total) if total is not None else None),
            hint if isinstance(hint, dict) else None,
        )

    def peer_read(
        self,
        peer: str,
        name: str,
        gen: int,
        offset: int,
        length: int,
    ) -> bytes:
        """Fetch a cached run from a peer's shared block cache.

        Verifies the reply's crc32 and length before trusting it; any
        mismatch raises so the caller demotes the peer and re-requests
        from the origin — peers accelerate, they never gate correctness.
        Round trips are recorded against the *peer's* address in the
        TransferMonitor, which is what lets the window rank peers by
        observed bandwidth.
        """
        rpc = self._peer_rpc(peer)
        t0 = time.perf_counter()
        reply, data = rpc.call(
            OP_PEER_READ,
            {
                "origin": f"{self._addr[0]}:{self._addr[1]}",
                "name": name,
                "gen": int(gen),
                "offset": int(offset),
                "length": int(length),
            },
        )
        elapsed = time.perf_counter() - t0
        if not data or len(data) > length:
            raise RpcError(
                "peer-bad-length", f"peer {peer} sent {len(data)} bytes for {length}"
            )
        if ioutil.crc32(data) != int(reply.get("crc", -1)):
            raise RpcError("peer-bad-crc", f"checksum mismatch from peer {peer}")
        if self.monitor is not None:
            self.monitor.record(peer, "peer_read", len(data), elapsed)
        return data

    def _peer_rpc(self, peer: str) -> RpcClient:
        with self._peer_rpcs_lock:
            rpc = self._peer_rpcs.get(peer)
            if rpc is None:
                host, _, port_s = peer.rpartition(":")
                rpc = RpcClient(
                    host,
                    int(port_s),
                    timeout=min(self._timeout, _PEER_TIMEOUT),
                    max_connections=2,
                )
                self._peer_rpcs[peer] = rpc
            return rpc

    def consume_multi(
        self,
        name: str,
        entries: Sequence[Tuple[str, Sequence[Sequence[int]]]],
        adv: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Acknowledge ranges served from a shared cache, several readers
        in one ``gb.consume_multi`` frame; True once the server has them.

        ``entries`` is a list of ``(reader_id, ranges)`` pairs — the
        shared-cache ack aggregator's flush unit.  ``adv`` piggybacks a
        cooperative-cache holder advertisement (``peer``/``gen``/
        ``holds``/``drops`` keys) on the same frame.
        """
        self.consume_multi_ex(name, entries, adv=adv)
        return True

    def consume_multi_ex(
        self,
        name: str,
        entries: Sequence[Tuple[str, Sequence[Sequence[int]]]],
        adv: Optional[Dict[str, Any]] = None,
        peer_hints: Optional[Tuple[str, int]] = None,
        hint_from: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """:meth:`consume_multi` returning the server's ``cached_at`` hint.

        A fully peer-served reader never issues an origin read, so the
        ack channel is the only round trip on which its holder map can
        refresh — ``peer_hints=(own_peer_addr, k)`` asks for an updated
        hint on the reply, as for :meth:`read_window_ex`.  ``hint_from``
        carries the reader's true read frontier: acked ranges trail it,
        and a hint computed at the acked frontier points at peers that
        may not hold the leading edge yet.
        """
        entries = [
            (rid, [[int(s), int(e)] for s, e in ranges]) for rid, ranges in entries
        ]
        if not entries and not adv:
            return None
        header: Dict[str, Any] = {
            "name": name,
            "entries": [[rid, ranges] for rid, ranges in entries],
        }
        if adv:
            header.update(adv)
        if peer_hints is not None:
            header["peer"] = peer_hints[0]
            header["peer_hints"] = int(peer_hints[1])
            if hint_from is not None:
                header["hint_from"] = int(hint_from)
        reply, _ = self._rpc.call(OP_CONSUME_MULTI, header)
        hint = reply.get("cached_at")
        return hint if isinstance(hint, dict) else None

    def close_writer(self, name: str) -> int:
        reply, _ = self._rpc.call(OP_CLOSE_WRITER, {"name": name})
        return int(reply["total"])

    def stats(self, name: str) -> Dict[str, Any]:
        reply, _ = self._rpc.call(OP_STATS, {"name": name})
        return dict(reply["stats"])

    def drop_stream(self, name: str) -> None:
        self._rpc.call(OP_DROP, {"name": name})

    def stream_exists(self, name: str) -> bool:
        reply, _ = self._rpc.call(OP_EXISTS, {"name": name})
        return bool(reply["exists"])

    def abort_writer(self, name: str, reason: str = "writer aborted") -> None:
        self._rpc.call(OP_ABORT, {"name": name, "reason": reason})

    def resume_writer(self, name: str) -> int:
        """Clear a failure; returns the offset to resume writing from."""
        reply, _ = self._rpc.call(OP_RESUME, {"name": name})
        return int(reply["offset"])

    def high_water(self, name: str) -> int:
        reply, _ = self._rpc.call(OP_HIGH_WATER, {"name": name})
        return int(reply["offset"])

    # -- file-like adapters ----------------------------------------------------
    def open_writer(
        self,
        name: str,
        n_readers: int = 1,
        capacity_bytes: Optional[int] = None,
        cache: bool = False,
        write_timeout: Optional[float] = None,
        coalesce_bytes: int = 0,
        flush_after: float = DEFAULT_FLUSH_DEADLINE,
    ) -> "BufferWriter":
        self.create_stream(name, n_readers=n_readers, capacity_bytes=capacity_bytes, cache=cache)
        return BufferWriter(
            self,
            name,
            write_timeout=write_timeout,
            coalesce_bytes=coalesce_bytes,
            flush_after=flush_after,
        )

    def open_reader(
        self,
        name: str,
        reader_id: Optional[str] = None,
        read_timeout: Optional[float] = None,
        open_timeout: float = 10.0,
        poll_interval: Optional[float] = None,
        read_ahead: bool = False,
        read_ahead_bytes: int = DEFAULT_READ_BUDGET,
        read_ahead_depth: int = 4,
        shared_cache: bool = False,
        peer_cache: bool = False,
    ) -> "BufferReader":
        """Attach a reader, waiting for the stream to exist.

        A reader may open before the writer has created the stream (the
        paper's FM blocks the legacy OPEN until matched); poll until the
        stream appears or ``open_timeout`` elapses.

        ``peer_cache=True`` joins the cluster-wide cooperative cache:
        the reader advertises its shared block cache to the origin,
        serves ``gb.peer_read`` for other readers, and redirects its
        own fetches to hinted peers when the origin says one holds the
        bytes.  Implies ``shared_cache`` (the shared cache *is* the
        peer-served store) and ``read_ahead`` (the window drives the
        peer fetches).
        """
        rid = reader_id or f"reader-{uuid.uuid4().hex[:8]}"
        interval = _open_poll_interval() if poll_interval is None else poll_interval
        deadline = time.monotonic() + open_timeout
        while not self.stream_exists(name):
            if time.monotonic() > deadline:
                raise TimeoutError(f"stream {name!r} never appeared")
            time.sleep(interval)
        if peer_cache:
            shared_cache = True
            read_ahead = True
        peer_addr = _PeerCacheServer.get().addr if peer_cache else None
        gen, hint = self.register_reader_ex(
            name,
            rid,
            peer_hints=(peer_addr, _HINT_K) if peer_addr is not None else None,
        )
        return BufferReader(
            self,
            name,
            rid,
            read_timeout=read_timeout,
            read_ahead=read_ahead,
            read_ahead_bytes=read_ahead_bytes,
            read_ahead_depth=read_ahead_depth,
            shared_cache=shared_cache,
            peer_addr=peer_addr,
            gen=gen,
            initial_hint=hint,
        )

    def close(self) -> None:
        self._rpc.close()
        with self._peer_rpcs_lock:
            peer_rpcs = list(self._peer_rpcs.values())
            self._peer_rpcs.clear()
        for rpc in peer_rpcs:
            rpc.close()

    def __enter__(self) -> "GridBufferClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Writer side
# ---------------------------------------------------------------------------


class BufferWriter(io.RawIOBase):
    """File-like writer feeding a Grid Buffer stream.

    With ``coalesce_bytes > 0`` writes are buffered locally in a
    :class:`~repro.core.remote_io.RunBatcher` and pushed as *batched
    vectored RPCs*: contiguous runs merge, scattered runs ride the same
    ``gb.write_multi`` frame.  Coalescing is safe by default because a
    background deadline thread bounds how long bytes stay local
    (``flush_after`` seconds, default 20 ms) — a downstream blocking
    reader sees new data within the deadline even mid-run, which keeps
    tightly pipelined streams tight.  ``flush_after=0`` disables the
    deadline (flush only on size/flush/close).
    """

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        write_timeout: Optional[float] = None,
        coalesce_bytes: int = 0,
        flush_after: float = DEFAULT_FLUSH_DEADLINE,
    ):
        super().__init__()
        self._client = client
        self.name = name
        self._pos = 0
        self._timeout = write_timeout
        self._closed_writer = False
        self._lock = threading.Lock()
        self._flush_cv = threading.Condition(self._lock)
        self._m_write_rpcs = _WRITE_RPCS.labels(stream=name)
        self._m_deadline_flushes = _DEADLINE_FLUSHES.labels(stream=name)
        self._coalescer = (
            RunBatcher(self._push_runs, coalesce_bytes) if coalesce_bytes > 0 else None
        )
        self._flush_after = max(0.0, flush_after)
        self._pending_since: Optional[float] = None
        self._deadline_thread: Optional[threading.Thread] = None
        # Deadline flushes issue write RPCs from a background thread;
        # adopt the opener's span context so those rpc.client spans
        # still join the workflow trace.
        self._trace_ctx = obs.current_context()
        if self._coalescer is not None and self._flush_after > 0:
            self._deadline_thread = threading.Thread(
                target=self._deadline_loop, name=f"gb-flush:{name}", daemon=True
            )
            self._deadline_thread.start()

    def _push_runs(self, runs: List[Tuple[int, bytes]]) -> None:
        stall = self._client.write_multi(self.name, runs, timeout=self._timeout)
        self._m_write_rpcs.inc()
        if self._coalescer is not None:
            self._coalescer.adapt(stall)

    def _deadline_loop(self) -> None:
        with obs.attach(self._trace_ctx):
            self._deadline_loop_attached()

    def _deadline_loop_attached(self) -> None:
        with self._flush_cv:
            while not self._closed_writer:
                if self._coalescer is None or self._coalescer.pending_bytes == 0:
                    self._pending_since = None
                    self._flush_cv.wait()
                    continue
                assert self._pending_since is not None
                age = time.monotonic() - self._pending_since
                if age >= self._flush_after:
                    self._coalescer.flush()
                    self._pending_since = None
                    self._m_deadline_flushes.inc()
                else:
                    self._flush_cv.wait(self._flush_after - age)

    @property
    def rpc_writes(self) -> int:
        """WRITE RPCs actually issued (== writes unless coalescing)."""
        return self._coalescer.flushes if self._coalescer is not None else self._raw_writes

    _raw_writes = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:  # type: ignore[override]
        data = bytes(data)
        with self._lock:
            if self._closed_writer:
                raise ValueError("write to closed BufferWriter")
            if data:
                if self._coalescer is not None:
                    had_pending = self._coalescer.pending_bytes > 0
                    self._coalescer.write(self._pos, data)
                    if self._coalescer.pending_bytes == 0:
                        self._pending_since = None
                    elif not had_pending or self._pending_since is None:
                        self._pending_since = time.monotonic()
                        self._flush_cv.notify_all()
                else:
                    self._client.write(self.name, self._pos, data, timeout=self._timeout)
                    self._raw_writes += 1
                    self._m_write_rpcs.inc()
                self._pos += len(data)
        return len(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        with self._lock:
            # Seeks no longer force a flush: a scattered write simply
            # opens a new run in the same vectored batch.
            if whence == os.SEEK_SET:
                self._pos = offset
            elif whence == os.SEEK_CUR:
                self._pos += offset
            else:
                raise OSError("SEEK_END unsupported on a stream writer")
            if self._pos < 0:
                raise ValueError("negative seek position")
            return self._pos

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._pos

    def flush(self) -> None:  # type: ignore[override]
        with self._lock:
            if self._coalescer is not None and not self._closed_writer:
                self._coalescer.flush()
                self._pending_since = None
        super().flush()

    def abort(self, reason: str = "writer aborted") -> None:
        """Fail the stream instead of finalising it.

        Unlike :meth:`close` no EOF is written: pending coalesced bytes
        are dropped and the stream is marked failed server-side, so
        blocking readers raise ``StreamFailed`` instead of hanging
        forever — or, worse, seeing a truncated stream that looks
        complete.  Idempotent; a later :meth:`close` is a no-op.
        """
        join_me = None
        with self._lock:
            if self._closed_writer:
                return
            self._closed_writer = True
            join_me = self._deadline_thread
            self._deadline_thread = None
            if self._coalescer is not None:
                self._coalescer.discard()
            self._flush_cv.notify_all()
        _WRITER_ABORTS.labels(stream=self.name).inc()
        try:
            self._client.abort_writer(self.name, reason)
        except (OSError, RpcError) as exc:
            # The abort signal is best-effort — the server may be the
            # very thing that died; readers then surface their own
            # connection errors instead of a clean StreamFailed.
            obs.event("gb.abort_failed", stream=self.name, error=str(exc))
        if join_me is not None:
            join_me.join(timeout=2.0)
        super().close()

    def close(self) -> None:
        join_me = None
        with self._lock:
            if not self._closed_writer:
                self._closed_writer = True
                join_me = self._deadline_thread
                self._deadline_thread = None
                try:
                    if self._coalescer is not None:
                        self._coalescer.flush()
                finally:
                    self._flush_cv.notify_all()
                    self._client.close_writer(self.name)
        if join_me is not None:
            join_me.join(timeout=2.0)
        super().close()


# ---------------------------------------------------------------------------
# Reader side
# ---------------------------------------------------------------------------

#: Read-ahead chunk per observed link bandwidth: (ceiling in bytes/s,
#: chunk size), first match wins.  Small requests keep time-to-first-
#: byte low on a slow link; big ones amortise per-frame cost on a fast one.
CHUNK_TIERS = (
    (1 << 20, 16 * 1024),     # < 1 MB/s: keep replies snappy
    (8 << 20, 64 * 1024),     # < 8 MB/s: the historical default
    (64 << 20, 256 * 1024),   # < 64 MB/s
)
#: Chunk size above the top tier.
MAX_CHUNK = 1024 * 1024


def _tiered_chunk(monitor: Optional[Any], peer: str) -> Optional[int]:
    """Read-ahead chunk for the link's bandwidth tier; None while unmeasured."""
    bandwidth = monitor.bandwidth(peer) if monitor is not None else None
    if not bandwidth:
        return None
    for ceiling, chunk in CHUNK_TIERS:
        if bandwidth < ceiling:
            return chunk
    return MAX_CHUNK


class BufferReader(ReadIntoFromRead, io.RawIOBase):
    """File-like reader over a Grid Buffer stream.

    Sequential reads drain the hash table; re-reads and backwards
    seeks hit the server-side cache file — exactly the DARLAM pattern
    in Section 5.3.  With ``read_ahead=True`` a
    :class:`~repro.core.remote_io.ReadAheadWindow` keeps up to
    ``read_ahead_depth`` windowed requests in flight on a pooled
    connection set of its own, so a request blocked server-side never
    head-of-line blocks the reader's demand connection; its chunk
    re-tiers from the client's measured link bandwidth.  With
    ``shared_cache=True`` co-located readers of the same stream serve
    each other's fetches from a per-process cache and acknowledge
    consumption with batched vectored ``gb.consume_multi`` calls.  With
    a ``peer_addr`` (the process's ``gb.peer_read`` endpoint) the
    reader joins the cooperative cache: fetches go first to peers the
    origin hinted at, spanning several chunks, and fall back to the
    origin on any trouble.
    """

    #: Acked-but-unsent shared-cache ranges are flushed past this size.
    ACK_FLUSH_BYTES = 1 * 1024 * 1024

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        reader_id: str,
        read_timeout: Optional[float] = None,
        read_ahead: bool = False,
        read_ahead_bytes: int = DEFAULT_READ_BUDGET,
        read_ahead_depth: int = 4,
        shared_cache: bool = False,
        peer_addr: Optional[str] = None,
        gen: int = 0,
        initial_hint: Optional[Dict[str, Any]] = None,
    ):
        super().__init__()
        self._client = client
        self.name = name
        self.reader_id = reader_id
        self._pos = 0
        self._timeout = read_timeout
        self._rpc: Optional[RpcClient] = client._fresh_connection()
        self._ra_buf = b""          # data already fetched ahead, at _pos
        self._at_eof = False
        self.readahead_hits = 0     # reads served (fully) from the pipeline
        self.shared_hits = 0        # reads served from the shared cache
        self.peer_hits = 0          # fetches served by cooperative-cache peers
        self._m_ra_hits = _READAHEAD_HITS.labels(stream=name)
        self._m_shared_hits = _SHARED_HITS.labels(stream=name)
        self._m_peer_hits = _PEER_HITS.labels(stream=name)
        self._m_peer_bytes = _PEER_FETCH_BYTES.labels(stream=name)
        self._gen = int(gen)
        self._shared: Optional[_SharedStreamCache] = None
        if shared_cache or peer_addr is not None:
            self._shared = _shared_cache_acquire(client.address, name, self._gen)
        # Cooperative cache state: our own peer address (None = peer
        # fetch disabled) and the origin's latest ``cached_at`` hint.
        # Demotions are per-reader permanent — a peer that lied once is
        # not retried.
        self._peer_addr = peer_addr
        if self._shared is not None and peer_addr is not None:
            self._shared.peer_addr = peer_addr
        self._hint_lock = threading.Lock()
        self._hint_peers: List[str] = []
        self._hint_start = 0
        self._hint_end = 0
        self._demoted: set = set()
        self._misses: Dict[str, int] = {}
        self._peer_rr = 0
        self._ra: Optional[ReadAheadWindow] = None
        self._ra_rpc: Optional[RpcClient] = None
        if read_ahead:
            self._ra_rpc = client._fresh_connection(max_connections=max(1, read_ahead_depth))
            self._ra = ReadAheadWindow(
                self._window_fetch,
                read_ahead_bytes,
                read_ahead_depth,
                name=f"gb-window:{name}",
                monitor=client.monitor,
                peer=client.peer,
                chunk_rule=lambda: _tiered_chunk(client.monitor, client.peer),
                span_rule=self._peer_span if peer_addr is not None else None,
                covered=self._covered,
                cancel=self._ra_rpc.close_all,
            )
        if initial_hint is not None and peer_addr is not None:
            self._store_hint(initial_hint)

    def readable(self) -> bool:
        return True

    def _covered(self, offset: int) -> bool:
        shared = self._shared
        return shared is not None and shared.covers(offset)

    def _hint_request(self) -> Optional[Tuple[str, int]]:
        return (self._peer_addr, _HINT_K) if self._peer_addr is not None else None

    # -- read-ahead fetch --------------------------------------------------
    def _window_fetch(self, offset: int, length: int) -> Tuple[bytes, Optional[int]]:
        """The window's fetch: hinted peers first, then the origin."""
        data = self._fetch_from_peer(offset, length) if self._peer_addr else None
        if data is not None:
            # Peer-served bytes never touched the origin, so ack them
            # explicitly — delete-on-read GC and per-reader lag gauges
            # must stay exact either way.
            self._ack(offset, offset + len(data), hint_from=offset + len(data))
            self._cache_put(offset, data, advertise=False)
            return data, None
        data, total, hint = self._client.read_window_ex(
            self.name,
            self.reader_id,
            offset,
            length,
            timeout=self._timeout,
            rpc=self._ra_rpc,
            peer_hints=self._hint_request(),
        )
        if hint is not None:
            self._store_hint(hint)
        self._cache_put(offset, data, advertise=True)
        return data, total

    def _cache_put(self, offset: int, data: bytes, advertise: bool) -> None:
        shared = self._shared
        if shared is not None and data:
            shared.put(offset, data, advertise=advertise)
            self.flush_advertisements(force=False)

    # -- cooperative-cache peer fetch --------------------------------------
    def _peer_span(self, offset: int, chunk: int) -> int:
        """Peer fetches batch several chunks: peers serve from RAM, so
        per-request overhead — not link bandwidth — is what bounds a
        popular holder."""
        with self._hint_lock:
            if self._hint_start <= offset < self._hint_end:
                return min(chunk * _PEER_SPAN_CHUNKS, self._hint_end - offset)
        return chunk

    def _fetch_from_peer(self, offset: int, length: int) -> Optional[bytes]:
        """Try hinted peers for ``offset``; None sends us to the origin.

        Every failure mode folds into "skip this peer and fall back":
        a miss (stale hint) is a strike, demoting after
        ``_MISS_STRIKES``; errors, timeouts and checksum/length
        mismatches demote immediately.  Correctness never depends on a
        peer answering — the origin always can.
        """
        for peer in self._peer_candidates(offset):
            try:
                data = self._client.peer_read(peer, self.name, self._gen, offset, length)
            except RpcError as exc:
                if exc.kind == "peer-miss":
                    self._strike(peer)
                elif exc.kind in ("peer-bad-crc", "peer-bad-length"):
                    ioutil.count_integrity_error("gb.peer", "demote")
                    self._demote(peer, "checksum")
                else:
                    self._demote(peer, "error")
            except TimeoutError:
                self._demote(peer, "timeout")
            except OSError:
                self._demote(peer, "error")
            else:
                if data:
                    self.peer_hits += 1
                    self._m_peer_hits.inc()
                    self._m_peer_bytes.inc(len(data))
                    return data
                self._strike(peer)
        return None

    def _peer_candidates(self, offset: int) -> List[str]:
        """Hinted peers expected to hold ``offset``, best first.

        Range-gated by the hint's span, demotion-filtered, then sorted
        by observed bandwidth with *unknown* peers first — an untried
        peer gets explored before we settle on a known-good one.  The
        start position rotates fetch to fetch: on a broadcast every
        hinted holder has the bytes, and rotating spreads concurrent
        fetchers across holders instead of herding them all at the
        single best-measured peer.  Failures still walk the remaining
        candidates in score order.
        """
        with self._hint_lock:
            if not (self._hint_start <= offset < self._hint_end):
                return []
            peers = [
                p
                for p in self._hint_peers
                if p not in self._demoted and p != self._peer_addr
            ]
            self._peer_rr += 1
            rot = self._peer_rr
        monitor = self._client.monitor
        if monitor is not None and len(peers) > 1:
            peers.sort(key=lambda p: -(monitor.bandwidth(p) or float("inf")))
        if len(peers) > 1:
            rot %= len(peers)
            peers = peers[rot:] + peers[:rot]
        return peers

    def _store_hint(self, hint: Dict[str, Any]) -> None:
        peers = hint.get("peers")
        if not isinstance(peers, (list, tuple)):
            return
        with self._hint_lock:
            self._hint_peers = [str(p) for p in peers]
            self._hint_start = int(hint.get("start", 0))
            self._hint_end = int(hint.get("end", 0))
        total = hint.get("total")
        if total is not None:
            # The origin told us the stream total along with the hint —
            # a fully peer-served reader learns EOF without ever probing
            # the origin for an empty read.
            window = self._ra
            if window is not None:
                window.note_eof(int(total))
            if self._shared is not None:
                self._shared.note_eof(int(total))

    def _demote(self, peer: str, reason: str) -> None:
        with self._hint_lock:
            if peer in self._demoted:
                return
            self._demoted.add(peer)
            self._misses.pop(peer, None)
        _PEER_DEMOTIONS.labels(reason=reason).inc()
        obs.event("gb.peer_demoted", stream=self.name, peer=peer, reason=reason)

    def _strike(self, peer: str) -> None:
        with self._hint_lock:
            strikes = self._misses.get(peer, 0) + 1
            self._misses[peer] = strikes
            if strikes < _MISS_STRIKES:
                return
        self._demote(peer, "miss")

    # -- shared-cache ack batching -----------------------------------------
    def _ack(self, start: int, end: int, hint_from: int) -> None:
        """Queue a shared-cache-served range for acknowledgement.

        Acks from every co-located reader of this stream pool in the
        shared cache's aggregator; once the aggregate crosses
        ``ACK_FLUSH_BYTES`` the whole group's backlog goes out as one
        ``gb.consume_multi`` frame — one round trip and one server-side
        GC pass instead of one per reader.
        """
        if end <= start or self._shared is None:
            return
        entries = self._shared.ack(self.reader_id, start, end, self.ACK_FLUSH_BYTES)
        if entries:
            self._send_consume(entries, force_adv=True, hint_from=hint_from)

    def _flush_acks(self) -> None:
        if self._shared is None:
            return
        entries = self._shared.drain_acks()
        if entries:
            self._send_consume(entries, force_adv=True, hint_from=self._pos)

    def flush_advertisements(self, force: bool = True) -> None:
        """Send pending holder advertisements to the origin now.

        Normally advertisements ride lazily on consume traffic; a
        holder that has finished reading (and so stops generating
        traffic) calls this to make its final cached ranges visible to
        peers immediately.
        """
        window = self._ra
        frontier = window.frontier if window is not None else self._pos
        self._send_consume([], force_adv=force, hint_from=frontier)

    def _send_consume(
        self, entries: List[Tuple[str, List[List[int]]]], force_adv: bool, hint_from: int
    ) -> None:
        """One ``gb.consume_multi`` frame: acks plus any due holder
        advertisement; the reply refreshes the peer hint.

        ``hint_from`` is the reader's true read frontier: acked ranges
        trail it, and a hint computed at the acked frontier points at
        peers that may not hold the leading edge yet.
        """
        adv = None
        if self._peer_addr is not None and self._shared is not None:
            pending = self._shared.take_adv(force=force_adv)
            if pending is not None:
                adv = {
                    "peer": self._peer_addr,
                    "gen": self._gen,
                    "holds": pending[0],
                    "drops": pending[1],
                }
        if not entries and adv is None:
            return
        try:
            hint = self._client.consume_multi_ex(
                self.name,
                entries,
                adv=adv,
                peer_hints=self._hint_request(),
                hint_from=hint_from,
            )
        except (OSError, RpcError):  # fault-ok: a lost ack delays GC, never corrupts
            pass
        else:
            if hint is not None:
                self._store_hint(hint)

    # -- read path ---------------------------------------------------------
    def _read_direct(self, size: int) -> bytes:
        # A peer-enabled reader tries the cooperative cache even on the
        # demand path: hinted, range-gated, ack-on-success, and falling
        # through to the origin on any trouble — same rules as the
        # window, so a reader that outruns its prefetch still relieves
        # the origin.
        if self._peer_addr is not None:
            data = self._fetch_from_peer(self._pos, size)
            if data is not None:
                self._ack(self._pos, self._pos + len(data), hint_from=self._pos)
                return data
        try:
            return self._origin_direct(size)
        except (OSError, RpcError) as exc:
            self._recover_connection(exc)
            return self._origin_direct(size)

    def _origin_direct(self, size: int) -> bytes:
        if self._peer_addr is not None:
            # Ask for hints on demand reads too: the reply both serves
            # these bytes and points the window at peers for the next.
            data, total, hint = self._client.read_window_ex(
                self.name,
                self.reader_id,
                self._pos,
                size,
                timeout=self._timeout,
                rpc=self._rpc,
                peer_hints=self._hint_request(),
            )
            if hint is not None:
                self._store_hint(hint)
            if total is not None and self._shared is not None:
                self._shared.note_eof(total)
            return data
        return self._client.read(
            self.name, self.reader_id, self._pos, size, timeout=self._timeout, rpc=self._rpc
        )

    def _recover_connection(self, exc: BaseException) -> None:
        """Rebuild the demand connection and re-register after a failure.

        Fires when the transport's own retries are exhausted (e.g. the
        Grid Buffer front end restarted) or the service forgot this
        reader.  Registration is idempotent server-side and the resume
        position is ``self._pos`` — exact, because the ``gb.consume_multi``
        ack bookkeeping tracks consumption per byte range, not per call.
        Non-recoverable errors (stream failed, stalled, EOF races)
        re-raise unchanged.
        """
        recoverable = isinstance(exc, OSError) and not isinstance(exc, TimeoutError)
        if isinstance(exc, RpcError):
            recoverable = exc.kind == "grid-buffer" and "not registered" in exc.message
        if not recoverable:
            raise exc
        _READER_RESUMES.labels(stream=self.name).inc()
        obs.event(
            "gb.reader_resume",
            stream=self.name,
            reader=self.reader_id,
            pos=self._pos,
            error=str(exc),
        )
        if self._rpc is not None:
            try:
                self._rpc.close_all()
            except OSError:  # fault-ok: old connection already dead
                pass
            self._rpc = self._client._fresh_connection()
        gen = self._client.register_reader(self.name, self.reader_id)
        if gen != self._gen:
            # The stream was re-created while we were away: everything
            # buffered or cached belongs to a dead incarnation.  Swap to
            # the new generation's shared cache so neither we nor any
            # peer ever serves the old bytes.
            self._ra_buf = b""
            self._at_eof = False
            if self._shared is not None:
                _shared_cache_release(self._client.address, self.name, self._gen)
                self._shared = _shared_cache_acquire(self._client.address, self.name, gen)
                if self._peer_addr is not None:
                    self._shared.peer_addr = self._peer_addr
            with self._hint_lock:
                self._hint_peers = []
                self._hint_start = self._hint_end = 0
            if self._ra is not None:
                self._ra.discard()
            self._gen = gen

    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        if size is None or size < 0:
            chunks = []
            while True:
                chunk = self.read(DEFAULT_READ_BUDGET)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
        if size == 0:
            return b""
        out = bytearray()
        # 1. Serve from the read-ahead buffer first.
        if self._ra_buf:
            take = min(size, len(self._ra_buf))
            out += self._ra_buf[:take]
            self._ra_buf = self._ra_buf[take:]
            self._pos += take
            size -= take
            if size == 0:
                self.readahead_hits += 1
                self._m_ra_hits.inc()
                self._schedule_readahead()
                return bytes(out)
        # 2. Shared per-process cache: a co-located reader already
        # fetched this range; serve it locally and ack consumption.
        if self._shared is not None and not self._at_eof and size > 0:
            if self._shared.eof_total is not None and self._pos >= self._shared.eof_total:
                self._at_eof = True
                self._schedule_readahead()
                return bytes(out)
            data = self._shared.get(self._pos)
            if data is not None:
                take = min(size, len(data))
                out += data[:take]
                self._ra_buf = data[take:]
                self._ack(self._pos, self._pos + len(data), hint_from=self._pos)
                self._pos += take
                size -= take
                self.shared_hits += 1
                self._m_shared_hits.inc()
                self._schedule_readahead()
                return bytes(out)
        # 3. Collect a completed/in-flight read-ahead landing at _pos.
        if self._ra is not None and not self._at_eof and size > 0:
            data = self._ra.take(self._pos)
            if data is not None:
                if not data:
                    self._at_eof = True
                else:
                    take = min(size, len(data))
                    out += data[:take]
                    self._ra_buf = data[take:]
                    self._pos += take
                    size -= take
                if out:
                    self.readahead_hits += 1
                    self._m_ra_hits.inc()
                    self._ra.note_hit()
                    self._schedule_readahead()
                    return bytes(out)
        # 4. Whatever is still missing comes from a demand RPC (a short
        # read is fine — POSIX semantics — but never block past EOF).
        # Clamp to the next window boundary so an in-flight read-ahead
        # request is never partially duplicated.
        if size > 0 and not self._at_eof:
            limit = size
            if self._ra is not None:
                boundary = self._ra.next_boundary(self._pos)
                if boundary is not None and boundary > self._pos:
                    limit = min(limit, boundary - self._pos)
            data = self._read_direct(limit)
            if not data and not out:
                self._at_eof = True
            self._cache_put(self._pos, data, advertise=True)
            out += data
            self._pos += len(data)
        self._schedule_readahead()
        return bytes(out)

    def _schedule_readahead(self) -> None:
        if self._ra is None or self._at_eof:
            return
        self._ra.schedule(self._pos + len(self._ra_buf))

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        if whence == os.SEEK_SET:
            new_pos = offset
        elif whence == os.SEEK_CUR:
            new_pos = self._pos + offset
        else:
            raise OSError("SEEK_END unsupported on a stream reader")
        if new_pos < 0:
            raise ValueError("negative seek position")
        if new_pos != self._pos:
            if self._ra_buf and self._pos <= new_pos < self._pos + len(self._ra_buf):
                # Seek lands inside the buffered run: keep the tail.
                self._ra_buf = self._ra_buf[new_pos - self._pos:]
            else:
                self._ra_buf = b""
                if self._ra is not None:
                    self._ra.discard()
            self._at_eof = False
        self._pos = new_pos
        return self._pos

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._pos

    def close(self) -> None:
        if self.closed:
            return
        if self._ra is not None:
            self._ra.close()
            self._ra = None
        if self._ra_rpc is not None:
            self._ra_rpc.close()
            self._ra_rpc = None
        self._flush_acks()
        if self._shared is not None:
            last = _shared_cache_release(self._client.address, self.name, self._gen)
            if last and self._peer_addr is not None:
                # Last co-located reader gone: the cache is dropped, so
                # withdraw the holder registration before peers chase it.
                try:
                    self._client.consume_multi(
                        self.name,
                        [],
                        adv={
                            "peer": self._peer_addr,
                            "gen": self._gen,
                            "holds": [],
                            "drops": [[0, _DROP_ALL_END]],
                        },
                    )
                except (OSError, RpcError):  # fault-ok: stale-gen hints miss harmlessly
                    pass
            self._shared = None
        if self._rpc is not None:
            self._rpc.close_all()
            self._rpc = None
        super().close()

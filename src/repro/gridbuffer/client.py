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
  :class:`~repro.core.remote_io.ReadAheadWindow` whose fetch reads
  from the origin and fills the shared cache.

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
        # crc32 of each run, taken at insert time.  get() re-verifies
        # against it, so a run that rots in memory (or is poisoned by
        # the chaos injector) is discarded — the reader falls through
        # to the origin — instead of being handed to a sibling reader.
        self._crcs: Dict[int, int] = {}
        self._index: List[int] = []
        self._max_len = 0
        self._bytes = 0
        self.refs = 0
        #: Stream generation this cache mirrors (part of the registry
        #: key): a re-created stream gets a fresh cache, never stale
        #: bytes from the previous incarnation.
        self.gen = gen
        #: Stream name, used only to label fault-injection hooks and
        #: discard events.
        self.name = name
        # Pending consume acknowledgements from *all* co-located
        # readers, merged here so one ``gb.consume_multi`` frame (and
        # one server-side GC pass) covers the whole group per flush.
        self._acks: Dict[str, List[List[int]]] = {}
        self._ack_bytes = 0
        self.ack_flushes = 0

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

    def put(self, offset: int, data: bytes) -> None:
        """Cache a run fetched from the origin."""
        if not data:
            return
        data = bytes(data)
        # Checksum *before* the poison hook: a "corrupt" rule on
        # gb.cache flips a bit in the stored copy while the recorded
        # crc stays honest — exactly the shape of real memory rot, and
        # what the serve-time verify in get() must catch.
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
            while self._bytes > self._capacity and len(self._entries) > 1:
                old_off, old = self._entries.popitem(last=False)
                self._crcs.pop(old_off, None)
                self._bytes -= len(old)
                i = bisect_left(self._index, old_off)
                if i < len(self._index) and self._index[i] == old_off:
                    del self._index[i]

    def _verify_locked(self, off: int, data: bytes) -> bool:
        """Serve-time integrity check; a corrupt run is discarded.

        The caller sees a plain miss — readers fall through to the
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
        ioutil.count_integrity_error("gb.cache", "discard")
        obs.event(
            "gb.cache_discard", stream=self.name, offset=off, length=len(data)
        )
        return False

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
        reply, _ = self._rpc.call(OP_REGISTER_READER, {"name": name, "reader_id": reader_id})
        return int(reply["gen"])

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
        header: Dict[str, Any] = {
            "name": name,
            "reader_id": reader_id,
            "offset": offset,
            "budget": budget,
            "min_bytes": min_bytes,
            "timeout": timeout,
        }
        t0 = time.perf_counter()
        reply, data = (rpc or self._rpc).call(OP_READ_MULTI, header)
        self._record("read_multi", len(data), time.perf_counter() - t0)
        total = reply.get("total")
        return data, (int(total) if total is not None else None)

    def consume_multi(
        self,
        name: str,
        entries: Sequence[Tuple[str, Sequence[Sequence[int]]]],
    ) -> bool:
        """Acknowledge ranges served from a shared cache, several readers
        in one ``gb.consume_multi`` frame; True once the server has them.

        ``entries`` is a list of ``(reader_id, ranges)`` pairs — the
        shared-cache ack aggregator's flush unit.
        """
        if entries:
            header = {
                "name": name,
                "entries": [
                    [rid, [[int(s), int(e)] for s, e in ranges]] for rid, ranges in entries
                ],
            }
            self._rpc.call(OP_CONSUME_MULTI, header)
        return True

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
    ) -> "BufferReader":
        """Attach a reader, waiting for the stream to exist.

        A reader may open before the writer has created the stream (the
        paper's FM blocks the legacy OPEN until matched); poll until the
        stream appears or ``open_timeout`` elapses.
        """
        rid = reader_id or f"reader-{uuid.uuid4().hex[:8]}"
        interval = _open_poll_interval() if poll_interval is None else poll_interval
        deadline = time.monotonic() + open_timeout
        while not self.stream_exists(name):
            if time.monotonic() > deadline:
                raise TimeoutError(f"stream {name!r} never appeared")
            time.sleep(interval)
        gen = self.register_reader(name, rid)
        return BufferReader(
            self,
            name,
            rid,
            read_timeout=read_timeout,
            read_ahead=read_ahead,
            read_ahead_bytes=read_ahead_bytes,
            read_ahead_depth=read_ahead_depth,
            shared_cache=shared_cache,
            gen=gen,
        )

    def close(self) -> None:
        self._rpc.close()

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
    consumption with batched vectored ``gb.consume_multi`` calls.
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
        gen: int = 0,
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
        self._m_ra_hits = _READAHEAD_HITS.labels(stream=name)
        self._m_shared_hits = _SHARED_HITS.labels(stream=name)
        self._gen = int(gen)
        self._shared: Optional[_SharedStreamCache] = None
        if shared_cache:
            self._shared = _shared_cache_acquire(client.address, name, self._gen)
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
                covered=self._covered,
                cancel=self._ra_rpc.close_all,
            )

    def readable(self) -> bool:
        return True

    def _covered(self, offset: int) -> bool:
        shared = self._shared
        return shared is not None and shared.covers(offset)

    # -- read-ahead fetch --------------------------------------------------
    def _window_fetch(self, offset: int, length: int) -> Tuple[bytes, Optional[int]]:
        """The window's fetch: one origin read, kept in the shared cache."""
        data, total = self._client.read_window(
            self.name, self.reader_id, offset, length, timeout=self._timeout, rpc=self._ra_rpc
        )
        self._cache_put(offset, data)
        return data, total

    def _cache_put(self, offset: int, data: bytes) -> None:
        shared = self._shared
        if shared is not None and data:
            shared.put(offset, data)

    # -- shared-cache ack batching -----------------------------------------
    def _ack(self, start: int, end: int) -> None:
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
            self._send_consume(entries)

    def _flush_acks(self) -> None:
        if self._shared is None:
            return
        entries = self._shared.drain_acks()
        if entries:
            self._send_consume(entries)

    def _send_consume(self, entries: List[Tuple[str, List[List[int]]]]) -> None:
        try:
            self._client.consume_multi(self.name, entries)
        except (OSError, RpcError):  # fault-ok: a lost ack delays GC, never corrupts
            pass

    # -- read path ---------------------------------------------------------
    def _read_direct(self, size: int) -> bytes:
        try:
            return self._origin_direct(size)
        except (OSError, RpcError) as exc:
            self._recover_connection(exc)
            return self._origin_direct(size)

    def _origin_direct(self, size: int) -> bytes:
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
            # the new generation's shared cache so no reader of this
            # process ever serves the old bytes.
            self._ra_buf = b""
            self._at_eof = False
            if self._shared is not None:
                _shared_cache_release(self._client.address, self.name, self._gen)
                self._shared = _shared_cache_acquire(self._client.address, self.name, gen)
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
            data = self._shared.get(self._pos)
            if data is not None:
                take = min(size, len(data))
                out += data[:take]
                self._ra_buf = data[take:]
                self._ack(self._pos, self._pos + len(data))
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
            self._cache_put(self._pos, data)
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
            _shared_cache_release(self._client.address, self.name, self._gen)
            self._shared = None
        if self._rpc is not None:
            self._rpc.close_all()
            self._rpc = None
        super().close()

"""The Grid Buffer service.

Implements Section 4's design: the service "acts as a sink for WRITE
operations and a source for READs", storing data "in a hash table
rather than a sequential buffer" so random reads and writes work.
Additional paper semantics implemented here:

* **blocking reads** — a read of data not yet written waits for the
  writer ("if a block has not been written, the reader must wait").
* **delete-on-read** — once every registered reader has consumed a
  block it is removed from the hash table, bounding memory.
* **cache file** — if configured, every written block is also recorded
  in a :class:`~repro.gridbuffer.cache.BufferCache`; re-reads and
  backwards seeks are served from it after the table copy is gone.
* **broadcast** — one writer, many readers; a block is only dropped
  when *all* readers have consumed it.
* **bounded capacity / backpressure** — writers block while the table
  holds ``capacity_bytes``; this is what propagates a slow WAN reader
  back to the upstream model in the Table 5 experiments.

The service is thread-safe; the TCP server in
:mod:`repro.gridbuffer.server` simply exposes these methods remotely.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import zlib
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import faults, obs
from .cache import BufferCache, IntervalSet

__all__ = [
    "GridBufferError",
    "StreamClosed",
    "StreamFailed",
    "StreamStats",
    "GridBufferService",
]


logger = logging.getLogger("repro.gridbuffer")

_BYTES_WRITTEN = obs.counter(
    "buffer_bytes_written_total", "Bytes accepted by buffer streams", labelnames=("stream",)
)
_BLOCKS_STORED = obs.counter(
    "buffer_blocks_stored_total", "Blocks stored into buffer hash tables", labelnames=("stream",)
)
_BYTES_READ = obs.counter(
    "buffer_bytes_read_total", "Bytes delivered to buffer readers", labelnames=("stream",)
)
_CACHE_HITS = obs.counter(
    "buffer_cache_hits_total", "Reads served from a stream's cache file", labelnames=("stream",)
)
_CACHE_MISSES = obs.counter(
    "buffer_cache_misses_total",
    "Reads of consumed data with no cache file to fall back on",
    labelnames=("stream",),
)
_WRITER_STALLS = obs.counter(
    "buffer_writer_stalls_total",
    "Writer waits on a capacity-full buffer (backpressure events)",
    labelnames=("stream",),
)
_READER_WAITS = obs.counter(
    "buffer_reader_waits_total",
    "Reader waits for data not yet written",
    labelnames=("stream",),
)
_BLOCKS_CACHED = obs.gauge(
    "buffer_blocks_cached", "Blocks currently held in a stream's hash table", labelnames=("stream",)
)
_BYTES_CACHED = obs.gauge(
    "buffer_bytes_cached", "Bytes currently held in a stream's hash table", labelnames=("stream",)
)
_READERS = obs.gauge(
    "buffer_readers", "Readers registered on a stream (broadcast fan-out)", labelnames=("stream",)
)
_READER_LAG = obs.gauge(
    "buffer_reader_lag_bytes",
    "Bytes between the writer's high-water mark and a reader's read frontier",
    labelnames=("stream", "reader"),
)
_READER_LAG_BLOCKS = obs.gauge(
    "buffer_reader_lag_blocks",
    "Table blocks at/after a reader's contiguous consume frontier",
    labelnames=("stream", "reader"),
)
_ASYNC_PARKED = obs.gauge(
    "buffer_async_parked",
    "Coroutine handlers currently parked on a stream future",
    labelnames=("direction",),
)
_PARK_SECONDS = obs.histogram(
    "buffer_park_seconds",
    "Time a coroutine handler spent parked waiting for data/capacity",
    labelnames=("direction",),
)


class GridBufferError(RuntimeError):
    """Protocol violation or unavailable data."""


class StreamClosed(GridBufferError):
    """Write to a stream whose writer already closed it."""


class StreamFailed(GridBufferError):
    """The stream was aborted by a writer-side fault."""


@dataclass
class StreamStats:
    """Observable counters for one stream (for tests and benchmarks)."""

    bytes_written: int = 0
    bytes_read: int = 0
    blocks_in_table: int = 0
    bytes_in_table: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    writer_stalls: int = 0
    reader_waits: int = 0


class _Stream:
    def __init__(
        self,
        name: str,
        n_readers: int,
        capacity_bytes: Optional[int],
        cache: Optional[BufferCache],
        gen: int = 1,
    ):
        self.name = name
        self.n_readers = n_readers
        self.capacity = capacity_bytes
        self.cache = cache
        #: Stream generation: bumped by the service each time this name
        #: is *freshly* created (it survives drop_stream), so client
        #: caches keyed on it can never serve a previous incarnation's
        #: bytes.
        self.gen = gen
        self.blocks: Dict[int, bytes] = {}
        #: Sorted block offsets + the largest block seen: lets reads
        #: locate a covering block by bisection instead of scanning the
        #: whole dict per position.
        self.block_index: List[int] = []
        self.max_block_len = 0
        self.in_table = IntervalSet()
        self.written = IntervalSet()
        self.consumed: Dict[str, IntervalSet] = {}
        #: Highest write-batch sequence applied per writer token; replayed
        #: batches (client retried after a lost reply) are deduped here.
        self.applied_seq: Dict[str, int] = {}
        self.eof_total: Optional[int] = None
        self.failed: Optional[str] = None
        self.mem_bytes = 0
        self.cond = threading.Condition()
        #: (loop, future) pairs parked by async coroutines, split by what
        #: they wait *for*: readers wait for new data/EOF/failure state,
        #: writers wait for freed capacity.  Keeping the lists separate
        #: is load-bearing — a broadcast stream has N readers succeeding
        #: per published block, and each success frees capacity (delete-
        #: on-read GC); if that woke the readers already re-parked for
        #: the *next* block it would be O(N^2) future churn per round.
        self.async_readers: List[Tuple[Any, Any]] = []
        self.async_writers: List[Tuple[Any, Any]] = []
        self.stats = StreamStats()
        # Per-stream metric children bound once; hot paths pay a lock + add.
        self.m_bytes_written = _BYTES_WRITTEN.labels(stream=name)
        self.m_blocks_stored = _BLOCKS_STORED.labels(stream=name)
        self.m_bytes_read = _BYTES_READ.labels(stream=name)
        self.m_cache_hits = _CACHE_HITS.labels(stream=name)
        self.m_cache_misses = _CACHE_MISSES.labels(stream=name)
        self.m_writer_stalls = _WRITER_STALLS.labels(stream=name)
        self.m_reader_waits = _READER_WAITS.labels(stream=name)
        self.m_blocks_cached = _BLOCKS_CACHED.labels(stream=name)
        self.m_bytes_cached = _BYTES_CACHED.labels(stream=name)
        self.m_readers = _READERS.labels(stream=name)

    def wake_all(self) -> None:
        """Wake every waiter — threaded and async (callers hold ``cond``).

        Used for stream-global state changes (failure, resume, drop)
        where both directions must re-check.  Thread waiters get the
        condition broadcast; async waiters (coroutines parked on a
        future) are resolved via their loop's ``call_soon_threadsafe``.
        """
        self.cond.notify_all()
        self._resolve(self.async_readers)
        self._resolve(self.async_writers)
        self.async_readers = []
        self.async_writers = []

    def wake_readers(self) -> None:
        """Data/EOF became visible: wake waiters blocked on reads.

        The condition broadcast still reaches *all* thread waiters (one
        ``Condition`` serves both directions there — pre-existing
        behaviour); only the async side is directional.
        """
        self.cond.notify_all()
        if self.async_readers:
            self._resolve(self.async_readers)
            self.async_readers = []

    def wake_writers(self) -> None:
        """Capacity freed (GC after read/consume): wake stalled writers."""
        self.cond.notify_all()
        if self.async_writers:
            self._resolve(self.async_writers)
            self.async_writers = []

    @staticmethod
    def _resolve(waiters: List[Tuple[Any, Any]]) -> None:
        """Resolve parked futures, one loop hop per event loop.

        All server-side waiters share the engine loop, so batching the
        futures into a single ``call_soon_threadsafe`` turns N wake-ups
        into one cross-thread signal.
        """
        if not waiters:
            return
        by_loop: Dict[Any, List[Any]] = {}
        for loop, fut in waiters:
            by_loop.setdefault(loop, []).append(fut)
        for loop, futs in by_loop.items():
            loop.call_soon_threadsafe(_resolve_waiters, futs)

    def sync_table_gauges(self) -> None:
        """Push table occupancy into the registry (callers hold ``cond``)."""
        self.m_blocks_cached.set(len(self.blocks))
        self.m_bytes_cached.set(self.mem_bytes)

    def sync_reader_lag(self, reader_id: str) -> None:
        """Publish writer-frontier minus reader-frontier (callers hold ``cond``)."""
        ivs = self.written.intervals()
        top = ivs[-1][1] if ivs else 0
        done = self.consumed[reader_id].intervals()
        frontier = done[-1][1] if done else 0
        _READER_LAG.labels(stream=self.name, reader=reader_id).set(max(0, top - frontier))
        # Block-granular lag published by the *service* so it stays
        # exact when shared-cache readers batch their acks client-side
        # (the aggregator coalesces ranges, so inferring blocks from
        # individual ack calls under-counts).
        behind = len(self.block_index) - bisect_left(self.block_index, frontier)
        _READER_LAG_BLOCKS.labels(stream=self.name, reader=reader_id).set(behind)


def _resolve_waiters(futs: List["asyncio.Future"]) -> None:
    for fut in futs:
        if not fut.done():
            fut.set_result(None)


def _remove_interval(ivs: IntervalSet, start: int, end: int) -> None:
    """Remove [start, end) from an interval set (rebuild)."""
    remaining = []
    for s, e in ivs.intervals():
        if e <= start or s >= end:
            remaining.append((s, e))
        else:
            if s < start:
                remaining.append((s, start))
            if e > end:
                remaining.append((end, e))
    ivs._ivs = remaining  # noqa: SLF001 - module-private helper


class _AssemblyPlan:
    """Reply-assembly recipe built under the stream lock, executed outside.

    Table parts hold :class:`memoryview` slices of the immutable block
    ``bytes`` — still valid after delete-on-read GC removes the dict
    entries — and cache parts name file ranges to load once the lock is
    released, so cache-file IO never serialises the stream's other
    readers and the writer behind the condition variable.
    """

    __slots__ = ("total", "mem_parts", "cache_parts", "cache")

    def __init__(self, total: int, cache: Optional[BufferCache]):
        self.total = total
        self.mem_parts: List[Tuple[int, memoryview]] = []
        self.cache_parts: List[Tuple[int, int, int]] = []  # dest, file_off, length
        self.cache = cache

    def execute(self) -> bytes:
        if not self.cache_parts and len(self.mem_parts) == 1:
            return bytes(self.mem_parts[0][1])  # single-slice fast path
        buf = bytearray(self.total)
        for dest, view in self.mem_parts:
            buf[dest : dest + len(view)] = view
        for dest, off, length in self.cache_parts:
            buf[dest : dest + length] = self.cache.load(off, length)  # type: ignore[union-attr]
        return bytes(buf)


#: Registry shards: stream lookup contends only with same-shard
#: create/drop, never with every other stream's hot path.
_N_SHARDS = 16


class GridBufferService:
    """In-process Grid Buffer holding any number of named streams."""

    def __init__(self, default_capacity: Optional[int] = 32 * 1024 * 1024):
        self.default_capacity = default_capacity
        self._shard_locks = [threading.Lock() for _ in range(_N_SHARDS)]
        self._shard_maps: List[Dict[str, _Stream]] = [{} for _ in range(_N_SHARDS)]
        # Per-name generation counters.  Deliberately NOT per-stream
        # state: they must survive drop_stream so a re-created stream
        # gets a *new* generation — that is what invalidates client-side
        # shared caches after a writer crash.  Own lock: names on
        # different shards share this dict.
        self._gen_lock = threading.Lock()
        self._generations: Dict[str, int] = {}

    def _shard(self, name: str) -> Tuple[threading.Lock, Dict[str, _Stream]]:
        i = zlib.crc32(name.encode("utf-8", "surrogatepass")) % _N_SHARDS
        return self._shard_locks[i], self._shard_maps[i]

    @property
    def _streams(self) -> Dict[str, _Stream]:
        """Merged snapshot of every shard (tests and introspection)."""
        out: Dict[str, _Stream] = {}
        for lock, streams in zip(self._shard_locks, self._shard_maps):
            with lock:
                out.update(streams)
        return out

    # -- stream lifecycle ----------------------------------------------------
    def create_stream(
        self,
        name: str,
        n_readers: int = 1,
        capacity_bytes: Optional[int] = None,
        cache: Optional[BufferCache] = None,
    ) -> None:
        """Declare a stream before use.  Idempotent for identical config."""
        if n_readers < 1:
            raise ValueError("n_readers must be >= 1")
        lock, streams = self._shard(name)
        with lock:
            existing = streams.get(name)
            if existing is not None:
                if existing.n_readers != n_readers:
                    raise GridBufferError(f"stream {name!r} already exists with different config")
                return
            cap = capacity_bytes if capacity_bytes is not None else self.default_capacity
            with self._gen_lock:
                gen = self._generations.get(name, 0) + 1
                self._generations[name] = gen
            streams[name] = _Stream(name, n_readers, cap, cache, gen=gen)
            logger.debug(
                "stream %s created (readers=%d capacity=%s cache=%s gen=%d)",
                name, n_readers, cap, cache is not None, gen,
            )

    def _stream(self, name: str) -> _Stream:
        lock, streams = self._shard(name)
        with lock:
            try:
                return streams[name]
            except KeyError:
                raise GridBufferError(f"unknown stream {name!r}") from None

    def exists(self, name: str) -> bool:
        lock, streams = self._shard(name)
        with lock:
            return name in streams

    def stream_names(self) -> List[str]:
        """Sorted names of every live stream (ops plane / introspection)."""
        names: List[str] = []
        for lock, streams in zip(self._shard_locks, self._shard_maps):
            with lock:
                names.extend(streams)
        return sorted(names)

    def register_reader(self, name: str, reader_id: str) -> int:
        """Attach a reader; at most ``n_readers`` distinct ids allowed.

        Returns the stream's generation so clients can key their shared
        block caches on it (a re-created stream must never be served
        from a previous incarnation's cached bytes).
        """
        st = self._stream(name)
        with st.cond:
            if reader_id in st.consumed:
                return st.gen
            if len(st.consumed) >= st.n_readers:
                raise GridBufferError(
                    f"stream {name!r} already has {st.n_readers} readers"
                )
            st.consumed[reader_id] = IntervalSet()
            st.m_readers.set(len(st.consumed))
            st.wake_writers()  # stall classification depends on reader count
            return st.gen

    def stream_generation(self, name: str) -> int:
        """Current generation of a live stream."""
        return self._stream(name).gen

    def stats(self, name: str) -> StreamStats:
        st = self._stream(name)
        with st.cond:
            st.stats.blocks_in_table = len(st.blocks)
            st.stats.bytes_in_table = st.mem_bytes
            return StreamStats(**vars(st.stats))

    def drop_stream(self, name: str) -> None:
        lock, streams = self._shard(name)
        with lock:
            st = streams.pop(name, None)
        if st is not None and st.cache is not None:
            st.cache.close()

    # -- writer side ----------------------------------------------------------
    def write(
        self,
        name: str,
        offset: int,
        data: bytes,
        timeout: Optional[float] = None,
        token: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Optional[str]:
        """Store a block at ``offset``; blocks while capacity is exhausted.

        Returns the stall reason (``"buffer_full"``/``"slow_reader"``) if
        the writer had to wait, else ``None``.  ``token``/``seq`` enable
        replay dedupe exactly as in :meth:`write_multi`.
        """
        if offset < 0:
            raise ValueError("offset must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            injector.fire("gb.service", "write", name)
        return self._write_impl(name, offset, data, timeout, token, seq)

    def _write_impl(
        self,
        name: str,
        offset: int,
        data: bytes,
        timeout: Optional[float],
        token: Optional[str],
        seq: Optional[int],
    ) -> Optional[str]:
        st = self._stream(name)
        if not data:
            return None
        with st.cond:
            if self._replayed(st, token, seq):
                return None
            stall = self._write_locked(st, offset, data, timeout)
            self._record_seq(st, token, seq)
            st.sync_table_gauges()
            st.wake_readers()
        return stall

    def write_multi(
        self,
        name: str,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float] = None,
        token: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Tuple[int, Optional[str]]:
        """Scatter several blocks under one lock acquisition.

        One vectored call replaces ``len(runs)`` round trips *and*
        ``len(runs)`` condition-variable cycles; readers are notified
        once, after all blocks landed.  Returns ``(total bytes stored,
        stall reason)`` where the stall reason is ``None`` when the
        batch landed without waiting for capacity (else
        ``"buffer_full"``/``"slow_reader"`` — see :meth:`_write_locked`).

        ``token`` identifies the writer and ``seq`` must increase per
        batch: a batch whose ``seq`` was already applied for ``token``
        is a transport-level replay (the client retried after losing the
        reply, not the request) and is skipped, making ``gb.write_multi``
        safe to retry.
        """
        for offset, _ in runs:
            if offset < 0:
                raise ValueError("offset must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            injector.fire("gb.service", "write_multi", name)
        return self._write_multi_impl(name, runs, timeout, token, seq)

    def _write_multi_impl(
        self,
        name: str,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float],
        token: Optional[str],
        seq: Optional[int],
    ) -> Tuple[int, Optional[str]]:
        st = self._stream(name)
        total = 0
        stall: Optional[str] = None
        with st.cond:
            if self._replayed(st, token, seq):
                return 0, None
            for offset, data in runs:
                if not data:
                    continue
                stall = self._write_locked(st, offset, data, timeout) or stall
                total += len(data)
            self._record_seq(st, token, seq)
            st.sync_table_gauges()
            st.wake_readers()
        return total, stall

    async def write_async(
        self,
        name: str,
        offset: int,
        data: bytes,
        timeout: Optional[float] = None,
        token: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Optional[str]:
        """Async-native :meth:`write`: a capacity stall parks a future
        on the stream instead of blocking a thread."""
        if offset < 0:
            raise ValueError("offset must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            # On the event loop: await, so a delay rule stalls only this
            # handler, not every connection sharing the loop.
            await injector.fire_async("gb.service", "write", name)
        st = self._stream(name)
        if not data:
            return None
        if st.cache is not None:
            # Cache-file stores are blocking disk IO: keep them off the
            # event loop by running the sync path on a worker thread.
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, partial(self._write_impl, name, offset, data, timeout, token, seq)
            )
        _total, stall = await self._write_runs_async(st, [(offset, data)], timeout, token, seq)
        return stall

    async def write_multi_async(
        self,
        name: str,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float] = None,
        token: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Tuple[int, Optional[str]]:
        """Async-native :meth:`write_multi` (same replay-dedupe contract)."""
        for offset, _ in runs:
            if offset < 0:
                raise ValueError("offset must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            await injector.fire_async("gb.service", "write_multi", name)
        st = self._stream(name)
        if st.cache is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, partial(self._write_multi_impl, name, runs, timeout, token, seq)
            )
        return await self._write_runs_async(st, runs, timeout, token, seq)

    async def _write_runs_async(
        self,
        st: _Stream,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float],
        token: Optional[str],
        seq: Optional[int],
    ) -> Tuple[int, Optional[str]]:
        """Store ``runs`` with async capacity stalls (cache-less streams).

        Mirrors the sync path: blocks already stored before a stall are
        published immediately (mid-batch ``wake_readers``) so the
        readers this writer is waiting on can drain the table.
        """
        runs = [(int(offset), data) for offset, data in runs if data]
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        total = 0
        stall: Optional[str] = None
        i = 0
        first = True
        while True:
            fut = None
            with st.cond:
                if first and self._replayed(st, token, seq):
                    return 0, None
                first = False
                while i < len(runs):
                    offset, data = runs[i]
                    self._check_writable(st, len(data))
                    if st.capacity is not None and st.mem_bytes + len(data) > st.capacity:
                        stall = (
                            "slow_reader" if len(st.consumed) >= st.n_readers else "buffer_full"
                        )
                        st.stats.writer_stalls += 1
                        st.m_writer_stalls.inc()
                        break
                    self._store_block(st, offset, data)
                    total += len(data)
                    i += 1
                if i == len(runs):
                    self._record_seq(st, token, seq)
                st.sync_table_gauges()
                # Publish whatever landed (possibly a partial batch) —
                # and only then park, so the wake cannot consume the
                # future we are about to wait on.
                st.wake_readers()
                if i < len(runs):
                    fut = loop.create_future()
                    st.async_writers.append((loop, fut))
            if fut is None:
                return total, stall
            parked_at = loop.time()
            _ASYNC_PARKED.labels(direction="write").inc()
            try:
                if deadline is None:
                    await fut
                else:
                    async with asyncio.timeout_at(deadline):
                        await fut
            except TimeoutError:
                raise TimeoutError(f"write stalled on full buffer {st.name!r}") from None
            finally:
                _ASYNC_PARKED.labels(direction="write").dec()
                _PARK_SECONDS.labels(direction="write").observe(loop.time() - parked_at)

    @staticmethod
    def _replayed(st: _Stream, token: Optional[str], seq: Optional[int]) -> bool:
        """True when this (token, seq) batch already landed (holds ``cond``)."""
        if token is None or seq is None:
            return False
        return st.applied_seq.get(token, -1) >= seq

    @staticmethod
    def _record_seq(st: _Stream, token: Optional[str], seq: Optional[int]) -> None:
        if token is not None and seq is not None:
            st.applied_seq[token] = seq

    def _write_locked(
        self, st: _Stream, offset: int, data: bytes, timeout: Optional[float]
    ) -> Optional[str]:
        """One block store; caller holds ``st.cond`` and notifies after.

        Returns why the writer stalled, if it did: ``"slow_reader"``
        when every reader is registered but lagging (the buffer drains
        as slowly as its slowest consumer), ``"buffer_full"`` when
        capacity is exhausted with readers still missing (nothing can be
        GC'd yet, so batching harder cannot help).
        """
        self._check_writable(st, len(data))
        stall: Optional[str] = None
        while st.capacity is not None and st.mem_bytes + len(data) > st.capacity:
            stall = "slow_reader" if len(st.consumed) >= st.n_readers else "buffer_full"
            st.stats.writer_stalls += 1
            st.m_writer_stalls.inc()
            # A mid-batch stall must publish the blocks already stored,
            # or the readers this wait depends on could never drain.
            st.wake_readers()
            if not st.cond.wait(timeout=timeout):
                raise TimeoutError(f"write stalled on full buffer {st.name!r}")
        self._store_block(st, offset, data)
        return stall

    @staticmethod
    def _check_writable(st: _Stream, data_len: int) -> None:
        """Raise unless the stream can (eventually) accept a block."""
        if st.failed is not None:
            raise StreamFailed(f"stream {st.name!r} failed: {st.failed}")
        if st.eof_total is not None:
            raise StreamClosed(f"stream {st.name!r} writer already closed")
        if st.capacity is not None and data_len > st.capacity:
            raise GridBufferError(
                f"block of {data_len} bytes exceeds stream capacity {st.capacity}"
            )

    def _store_block(self, st: _Stream, offset: int, data: bytes) -> None:
        """Land one block in the table (capacity already available)."""
        if st.written.covers(offset, offset + len(data)) and st.cache is None:
            # Overwrite of in-flight data: replace table contents.
            self._drop_blocks_overlapping(st, offset, offset + len(data))
        old = st.blocks.get(offset)
        if old is not None:
            st.mem_bytes -= len(old)  # same-offset rewrite replaces, not adds
        else:
            insort(st.block_index, offset)
        st.blocks[offset] = bytes(data)
        st.max_block_len = max(st.max_block_len, len(data))
        st.in_table.add(offset, offset + len(data))
        st.written.add(offset, offset + len(data))
        st.mem_bytes += len(data)
        st.stats.bytes_written += len(data)
        st.m_bytes_written.inc(len(data))
        st.m_blocks_stored.inc()
        if st.cache is not None:
            st.cache.store(offset, data)

    def close_writer(self, name: str) -> int:
        """Mark EOF; returns the stream's total length.

        The stream must be contiguous from offset 0 — a gap means some
        range was never written and readers would block forever.
        """
        st = self._stream(name)
        with st.cond:
            if st.eof_total is not None:
                return st.eof_total
            gap = st.written.first_gap(0, 1 << 62)
            ivs = st.written.intervals()
            total = ivs[-1][1] if ivs else 0
            if gap is not None and gap[0] < total:
                raise GridBufferError(
                    f"stream {name!r} has unwritten gap at {gap}; cannot close"
                )
            st.eof_total = total
            st.wake_readers()
            return total

    # -- fault handling ---------------------------------------------------------
    def abort_writer(self, name: str, reason: str = "writer aborted") -> None:
        """Mark the stream failed; waiting readers raise StreamFailed.

        A stream with no EOF whose writer dies would otherwise block its
        readers forever (Section 4 motivates the cache partly as fault
        flexibility — this is the explicit failure signal).
        """
        st = self._stream(name)
        with st.cond:
            st.failed = reason
            logger.warning("stream %s aborted: %s", name, reason)
            st.wake_all()

    def resume_writer(self, name: str) -> int:
        """Clear a failure and return the offset to resume writing from.

        The resume point is the contiguous high-water mark: everything
        below it was durably delivered (table or cache).  A restarted
        writer seeks its source to this offset and continues.
        """
        st = self._stream(name)
        with st.cond:
            if st.eof_total is not None:
                raise StreamClosed(f"stream {name!r} already completed")
            st.failed = None
            st.wake_all()
            gap = st.written.first_gap(0, 1 << 62)
            ivs = st.written.intervals()
            top = ivs[-1][1] if ivs else 0
            return gap[0] if gap is not None and gap[0] < top else top

    def high_water(self, name: str) -> int:
        """Contiguous bytes written from offset 0 (resume/monitor aid)."""
        st = self._stream(name)
        with st.cond:
            gap = st.written.first_gap(0, 1 << 62)
            ivs = st.written.intervals()
            top = ivs[-1][1] if ivs else 0
            return gap[0] if gap is not None and gap[0] < top else top

    # -- reader side ----------------------------------------------------------
    def read(
        self,
        name: str,
        reader_id: str,
        offset: int,
        length: int,
        timeout: Optional[float] = None,
        min_bytes: int = 1,
    ) -> bytes:
        """Read up to ``length`` bytes at ``offset`` for ``reader_id``.

        POSIX semantics: blocks only while *nothing* is available at
        ``offset``; otherwise returns the available prefix (possibly
        fewer than ``length`` bytes).  Returns ``b""`` exactly when
        ``offset`` is at/after EOF.  Blocking for the full range would
        deadlock against a capacity-stalled writer.

        ``min_bytes > 1`` (the windowed-read op) keeps blocking until
        at least that much is contiguously available — unless EOF or
        the ``length`` budget bounds the wait first — so a fast reader
        polling a slow writer costs one reply per window, not one per
        trickled block.

        Cache-file IO and reply assembly happen *outside* the stream
        lock: under the lock the service only plans the reply (slices
        of immutable table blocks + cache ranges), marks consumption
        and runs GC.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            injector.fire("gb.service", "read", name)
        min_bytes = max(1, min(min_bytes, length)) if length else 0
        st = self._stream(name)
        with st.cond:
            while True:
                res = self._read_attempt(st, reader_id, offset, length, min_bytes)
                if res is not None:
                    break
                st.stats.reader_waits += 1
                st.m_reader_waits.inc()
                if not st.cond.wait(timeout=timeout):
                    raise TimeoutError(
                        f"read of [{offset},{offset + length}) timed out on stream {name!r}"
                    )
        if isinstance(res, bytes):
            return res
        return res.execute()

    async def read_async(
        self,
        name: str,
        reader_id: str,
        offset: int,
        length: int,
        timeout: Optional[float] = None,
        min_bytes: int = 1,
    ) -> bytes:
        """Async-native :meth:`read`: a wait for unwritten data parks a
        future on the stream instead of a server thread, which is what
        lets one node hold thousands of concurrently blocked readers.
        Cache-file IO still runs on a worker thread."""
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            await injector.fire_async("gb.service", "read", name)
        min_bytes = max(1, min(min_bytes, length)) if length else 0
        st = self._stream(name)
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            fut = None
            with st.cond:
                res = self._read_attempt(st, reader_id, offset, length, min_bytes)
                if res is None:
                    st.stats.reader_waits += 1
                    st.m_reader_waits.inc()
                    fut = loop.create_future()
                    st.async_readers.append((loop, fut))
            if res is not None:
                break
            parked_at = loop.time()
            _ASYNC_PARKED.labels(direction="read").inc()
            try:
                if deadline is None:
                    await fut
                else:
                    async with asyncio.timeout_at(deadline):
                        await fut
            except TimeoutError:
                raise TimeoutError(
                    f"read of [{offset},{offset + length}) timed out on stream {name!r}"
                ) from None
            finally:
                _ASYNC_PARKED.labels(direction="read").dec()
                _PARK_SECONDS.labels(direction="read").observe(loop.time() - parked_at)
        if isinstance(res, bytes):
            return res
        if res.cache_parts:
            return await loop.run_in_executor(None, res.execute)
        return res.execute()

    def _read_attempt(
        self, st: _Stream, reader_id: str, offset: int, length: int, min_bytes: int
    ):
        """One readiness check under ``st.cond``.

        Returns an :class:`_AssemblyPlan` when data is servable now,
        ``b""`` at/after EOF, or ``None`` when the caller must wait.
        Raises for unregistered readers, failed streams and
        unrecoverable (consumed, uncached) ranges.
        """
        if reader_id not in st.consumed:
            raise GridBufferError(
                f"reader {reader_id!r} not registered on stream {st.name!r}"
            )
        if st.failed is not None:
            raise StreamFailed(f"stream {st.name!r} failed: {st.failed}")
        end = offset + length
        if st.eof_total is not None:
            if offset >= st.eof_total:
                return b""
            end = min(end, st.eof_total)
        avail_end = self._available_upto(st, offset, end)
        if avail_end > offset and (avail_end - offset >= min_bytes or avail_end >= end):
            plan = self._plan_assembly(st, reader_id, offset, avail_end)
            st.stats.bytes_read += plan.total
            st.m_bytes_read.inc(plan.total)
            st.sync_reader_lag(reader_id)
            st.wake_writers()  # delete-on-read GC may have freed capacity
            return plan
        self._check_recoverable(st, offset, end)
        return None

    def total_bytes(self, name: str) -> Optional[int]:
        """Stream length once the writer closed it, else ``None``."""
        st = self._stream(name)
        with st.cond:
            return st.eof_total

    def mark_consumed(
        self, name: str, reader_id: str, ranges: Iterable[Tuple[int, int]]
    ) -> None:
        """Record ranges as consumed for ``reader_id`` without reading.

        The vectored-broadcast path: when a co-located reader already
        fetched a range and served it from a shared client-side cache,
        the other readers acknowledge here so delete-on-read GC and the
        per-reader lag gauges stay exact without moving the bytes
        again.  Ranges outside written data are ignored.
        """
        self.mark_consumed_multi(name, [(reader_id, ranges)])

    def mark_consumed_multi(
        self,
        name: str,
        entries: Sequence[Tuple[str, Iterable[Tuple[int, int]]]],
    ) -> None:
        """Batched :meth:`mark_consumed` covering several readers at once.

        Backs the ``gb.consume_multi`` wire op: co-located readers
        sharing a client-side cache acknowledge their consumed ranges
        in one frame, one lock acquisition and one GC pass, instead of
        one ``gb.consume`` round trip per reader.  All readers are
        validated before anything is applied.
        """
        st = self._stream(name)
        with st.cond:
            for reader_id, _ranges in entries:
                if reader_id not in st.consumed:
                    raise GridBufferError(
                        f"reader {reader_id!r} not registered on stream {name!r}"
                    )
            touched: List[int] = []
            for reader_id, ranges in entries:
                for start, end in ranges:
                    start, end = max(0, int(start)), int(end)
                    if end <= start:
                        continue
                    st.consumed[reader_id].add(start, end)
                    st.stats.bytes_read += end - start
                    st.m_bytes_read.inc(end - start)
                    touched.extend(self._blocks_overlapping(st, start, end))
                st.sync_reader_lag(reader_id)
            self._gc_blocks(st, touched)
            st.sync_table_gauges()
            st.wake_writers()

    # -- internals -----------------------------------------------------------
    def _check_recoverable(self, st: _Stream, start: int, end: int) -> None:
        """Raise if some wanted byte was written, consumed and uncached.

        Without this a re-read on a cache-less stream would block
        forever waiting for data that will never reappear.
        """
        pos = start
        while pos < end:
            if st.in_table.covers(pos, pos + 1):
                gap = st.in_table.first_gap(pos, end)
                pos = end if gap is None else gap[0]
                continue
            if st.cache is not None and st.cache.has(pos, 1):
                pos = min(st.cache.valid_upto(pos), end)
                continue
            if st.written.covers(pos, pos + 1):
                raise GridBufferError(
                    f"range [{pos},{end}) of stream {st.name!r} was consumed and no "
                    "cache file is configured (sequential-only stream)"
                )
            return  # genuinely unwritten: caller should wait

    def _available_upto(self, st: _Stream, start: int, end: int) -> int:
        """Furthest position in [start, end) servable contiguously now."""
        pos = start
        while pos < end:
            if st.in_table.covers(pos, pos + 1):
                gap = st.in_table.first_gap(pos, end)
                pos = end if gap is None else gap[0]
            elif st.cache is not None and st.cache.has(pos, 1):
                pos = min(st.cache.valid_upto(pos), end)
            else:
                break
        return pos

    def _plan_assembly(
        self, st: _Stream, reader_id: str, start: int, end: int
    ) -> _AssemblyPlan:
        """Plan the reply for [start, end) and account it (holds ``cond``).

        Collects memoryview slices over the table's immutable block
        bytes plus cache-range descriptors; the caller executes the
        plan (the actual copying and cache-file IO) after releasing
        the stream lock.
        """
        plan = _AssemblyPlan(end - start, st.cache)
        pos = start
        touched: list[int] = []
        while pos < end:
            block_off = self._covering_block(st, pos)
            if block_off is not None:
                data = st.blocks[block_off]
                take_from = pos - block_off
                take = min(len(data) - take_from, end - pos)
                plan.mem_parts.append(
                    (pos - start, memoryview(data)[take_from : take_from + take])
                )
                touched.append(block_off)
                pos += take
                continue
            if st.cache is not None and st.cache.has(pos, 1):
                upto = min(st.cache.valid_upto(pos), end)
                plan.cache_parts.append((pos - start, pos, upto - pos))
                st.stats.cache_hits += 1
                st.m_cache_hits.inc()
                pos = upto
                continue
            st.stats.cache_misses += 1
            st.m_cache_misses.inc()
            raise GridBufferError(
                f"range [{pos},{end}) of stream {st.name!r} was consumed and no "
                "cache file is configured (sequential-only stream)"
            )
        st.consumed[reader_id].add(start, end)
        self._gc_blocks(st, touched)
        st.sync_table_gauges()
        return plan

    def _covering_block(self, st: _Stream, pos: int) -> Optional[int]:
        """Offset of a table block covering ``pos`` (bisect, not scan)."""
        if not st.in_table.covers(pos, pos + 1):
            return None
        idx = st.block_index
        i = bisect_right(idx, pos) - 1
        # Walk left over candidate offsets; no block further left than
        # max_block_len can reach pos, which bounds the walk to the
        # (rare, cache-stream-only) overlapping-block case.
        floor = pos - st.max_block_len
        while i >= 0:
            off = idx[i]
            if off < floor:
                break
            data = st.blocks.get(off)
            if data is not None and off <= pos < off + len(data):
                return off
            i -= 1
        return None

    def _blocks_overlapping(self, st: _Stream, start: int, end: int) -> List[int]:
        """Offsets of table blocks intersecting [start, end)."""
        idx = st.block_index
        lo = bisect_right(idx, max(0, start - st.max_block_len))
        lo = max(0, lo - 1)
        out = []
        for i in range(lo, len(idx)):
            off = idx[i]
            if off >= end:
                break
            data = st.blocks.get(off)
            if data is not None and off + len(data) > start:
                out.append(off)
        return out

    def _unindex_block(self, st: _Stream, off: int) -> None:
        i = bisect_left(st.block_index, off)
        if i < len(st.block_index) and st.block_index[i] == off:
            del st.block_index[i]

    def _gc_blocks(self, st: _Stream, offsets: list[int]) -> None:
        """Drop table blocks fully consumed by every registered reader.

        Until all ``n_readers`` readers have registered, nothing is
        dropped (a late-joining reader must still see the data).
        """
        if len(st.consumed) < st.n_readers:
            return
        for off in set(offsets):
            data = st.blocks.get(off)
            if data is None:
                continue
            end = off + len(data)
            if all(c.covers(off, end) for c in st.consumed.values()):
                del st.blocks[off]
                self._unindex_block(st, off)
                st.mem_bytes -= len(data)
                _remove_interval(st.in_table, off, end)

    def _drop_blocks_overlapping(self, st: _Stream, start: int, end: int) -> None:
        for off in self._blocks_overlapping(st, start, end):
            data = st.blocks.pop(off)
            self._unindex_block(st, off)
            st.mem_bytes -= len(data)
            _remove_interval(st.in_table, off, off + len(data))

"""Pipelined remote-IO building blocks.

The paper's buffer/proxy modes win on low-latency links because blocks
are *pipelined* — the next block is already in flight while the
application consumes the current one.  This module is the one place
that mechanism lives; the GridFTP proxy (modes 3–5) and the Grid
Buffer client (mode 6) both drive it:

* :class:`ReadAheadWindow` — worker threads keep an adaptive number of
  requests in flight ahead of the consumer's frontier.
* :class:`RunBatcher` — a write-behind buffer that merges contiguous
  writes into runs and pushes every pending run in one flush.
* :class:`BlockCache` — a thread-safe LRU of ``(path, block_no)``
  blocks, shared by every proxy file opened through one
  :class:`~repro.core.remote_client.RemoteFileClient`.

None of these know about sockets or services: the window is handed a
``fetch(offset, length)`` callable and the batcher a ``flush(runs)``
callable, and each caller plugs its own behaviour in through them (the
proxy fills its block cache; the Grid Buffer reader fills its shared
stream cache).
"""

from __future__ import annotations

import threading
from bisect import insort
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .. import obs

__all__ = ["BlockCache", "ReadAheadWindow", "RunBatcher"]

BlockKey = Tuple[str, int]

# Registry twins of the BlockCache's per-instance counters: the instance
# attributes stay (policy/benchmarks read them per cache), the registry
# series aggregate across every proxy file in the process.
_PREFETCH_HITS = obs.counter(
    "fm_prefetch_hits_total", "Reads served by a block the pipeline prefetched"
)
_PREFETCH_WASTED = obs.counter(
    "fm_prefetch_wasted_total", "Prefetched blocks discarded before any read used them"
)
_DEMAND_HITS = obs.counter(
    "fm_demand_hits_total", "Reads served by a previously demand-fetched cached block"
)
_BLOCKS_CACHED = obs.gauge(
    "fm_blocks_cached", "Blocks currently resident across FM block caches"
)


class _CacheEntry:
    __slots__ = ("data", "prefetched", "consumed")

    def __init__(self, data: bytes, prefetched: bool):
        self.data = data
        self.prefetched = prefetched
        self.consumed = False


class BlockCache:
    """Thread-safe LRU block cache keyed by ``(path, block_no)``.

    Shared between every proxy file of one remote client so concurrent
    readers of the same file benefit from each other's fetches.
    Counters:

    * ``prefetch_hits`` — reads served by a block a prefetcher loaded;
    * ``prefetch_wasted`` — prefetched blocks evicted or invalidated
      before any reader consumed them;
    * ``demand_hits`` — reads served by a previously demand-fetched block.
    """

    def __init__(self, capacity_blocks: int = 64):
        self._capacity = max(1, capacity_blocks)
        self._entries: "OrderedDict[BlockKey, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.prefetch_hits = 0
        self.prefetch_wasted = 0
        self.demand_hits = 0

    def get(self, path: str, block_no: int) -> Optional[bytes]:
        data, _ = self.fetch(path, block_no)
        return data

    def fetch(self, path: str, block_no: int) -> Tuple[Optional[bytes], bool]:
        """Like :meth:`get` but also reports pipeline credit.

        The second element is True when this lookup is the first consume
        of a prefetched block — i.e. the background pipeline, not a past
        demand fetch, paid for it.
        """
        with self._lock:
            entry = self._entries.get((path, block_no))
            if entry is None:
                return None, False
            self._entries.move_to_end((path, block_no))
            pipelined = entry.prefetched and not entry.consumed
            if pipelined:
                self.prefetch_hits += 1
                _PREFETCH_HITS.inc()
            elif not entry.prefetched:
                self.demand_hits += 1
                _DEMAND_HITS.inc()
            entry.consumed = True
            return entry.data, pipelined

    def put(self, path: str, block_no: int, data: bytes, prefetched: bool = False) -> None:
        with self._lock:
            if (path, block_no) not in self._entries:
                _BLOCKS_CACHED.inc()
            self._entries[(path, block_no)] = _CacheEntry(data, prefetched)
            self._entries.move_to_end((path, block_no))
            while len(self._entries) > self._capacity:
                _, evicted = self._entries.popitem(last=False)
                _BLOCKS_CACHED.dec()
                if evicted.prefetched and not evicted.consumed:
                    self.prefetch_wasted += 1
                    _PREFETCH_WASTED.inc()

    def contains(self, path: str, block_no: int) -> bool:
        with self._lock:
            return (path, block_no) in self._entries

    def invalidate(self, path: str, first_block: int, last_block: int) -> None:
        """Drop blocks ``first..last`` of ``path`` (a write dirtied them)."""
        with self._lock:
            for block_no in range(first_block, last_block + 1):
                entry = self._entries.pop((path, block_no), None)
                if entry is None:
                    continue
                _BLOCKS_CACHED.dec()
                if entry.prefetched and not entry.consumed:
                    self.prefetch_wasted += 1
                    _PREFETCH_WASTED.inc()

    def invalidate_path(self, path: str) -> None:
        with self._lock:
            for key in [k for k in self._entries if k[0] == path]:
                entry = self._entries.pop(key)
                _BLOCKS_CACHED.dec()
                if entry.prefetched and not entry.consumed:
                    self.prefetch_wasted += 1
                    _PREFETCH_WASTED.inc()

    def note_wasted(self, n: int = 1) -> None:
        """Account prefetched data discarded before it entered the cache."""
        with self._lock:
            self.prefetch_wasted += n
        _PREFETCH_WASTED.inc(n)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ReadAheadWindow:
    """Up to ``max_depth`` read-ahead requests in flight ahead of a reader.

    The owner calls :meth:`schedule` with its *frontier* (the first byte
    it has not buffered); worker threads — one per in-flight request —
    keep the window full of chunk-grid requests at/after it, each
    served by ``fetch(offset, length) -> (data, total_or_None)``.  A
    reply learns EOF from ``total`` or from being empty.  :meth:`take`
    hands the consumer the result covering a position, waiting while
    the request carrying it is still in flight.

    Depth starts at 1, doubles on every :meth:`note_hit` (a read the
    pipeline served) up to ``max_depth`` and falls back to 1 on
    :meth:`discard` (a seek).  Given a link ``monitor``, the
    bandwidth-delay product to ``peer`` picks the target depth
    directly — the paper's latency-crossover argument applied to the
    window size.

    Callers plug their own behaviour in through small callables:

    * ``chunk_rule()`` — request size to use (None keeps the current
      one); consulted only while nothing is queued, in flight or held,
      so an outstanding request is never partially duplicated under a
      new grid;
    * ``covered(offset)`` — another store already holds ``offset``: the
      window neither requests it nor reports a failed fetch of it;
    * ``cancel()`` — called by :meth:`close` after the workers are told
      to stop, to unblock fetches parked in flight.

    ``wasted`` counts fetched results dropped before any take used
    them (dirtied, skipped by a seek, or outstanding at close).
    """

    def __init__(
        self,
        fetch: Callable[[int, int], Tuple[bytes, Optional[int]]],
        chunk: int,
        max_depth: int,
        name: str = "read-ahead",
        monitor: Optional[Any] = None,
        peer: str = "",
        chunk_rule: Optional[Callable[[], Optional[int]]] = None,
        covered: Optional[Callable[[int], bool]] = None,
        cancel: Optional[Callable[[], None]] = None,
    ):
        self._fetch = fetch
        self._chunk = max(1, chunk)
        self._max_depth = max(1, max_depth)
        self._monitor = monitor
        self._peer = peer
        self._chunk_rule = chunk_rule
        self._covered = covered
        self._cancel = cancel
        self._cv = threading.Condition()
        self._queue: List[int] = []  # wanted offsets, ascending
        # In-flight requests: offset -> width.  Tracking the width keeps
        # schedule() from double-requesting bytes a request off the
        # current frontier's grid already carries.
        self._inflight: Dict[int, int] = {}
        # In-flight offsets dirtied by invalidate(): dropped on landing.
        self._stale: Set[int] = set()
        self._results: Dict[int, bytes] = {}
        self._errors: Dict[int, BaseException] = {}
        self._eof_at: Optional[int] = None
        self._depth = 1
        self._stopped = False
        self.wasted = 0
        # Fetches issued by worker threads should parent under whatever
        # span opened the reader (the task, usually) — capture the
        # constructing thread's context for re-attachment.
        self._trace_ctx = obs.current_context()
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}#{i}", daemon=True)
            for i in range(self._max_depth)
        ]
        for t in self._threads:
            t.start()

    # -- owner-side API ----------------------------------------------------
    def _target_depth(self) -> int:
        if self._monitor is not None:
            latency = self._monitor.latency(self._peer)
            bandwidth = self._monitor.bandwidth(self._peer)
            if latency and bandwidth:
                # Keep one round trip's worth of bytes in flight.
                bdp = 2.0 * latency * bandwidth
                return max(1, min(self._max_depth, round(bdp / self._chunk + 0.5)))
        return self._depth

    def note_hit(self) -> None:
        with self._cv:
            self._depth = min(self._depth * 2, self._max_depth)

    def note_eof(self, total: int) -> None:
        """The stream ends at ``total``: never request past it."""
        with self._cv:
            self._note_eof_locked(total)

    def _note_eof_locked(self, total: int) -> None:
        self._eof_at = total if self._eof_at is None else min(self._eof_at, total)

    def _result_covering(self, pos: int) -> Optional[int]:
        for off, data in self._results.items():
            if off <= pos < off + len(data):
                return off
        return None

    def _inflight_covering(self, pos: int) -> bool:
        return any(off <= pos < off + span for off, span in self._inflight.items())

    def _tracked(self) -> Set[int]:
        return set(self._queue) | set(self._inflight) | set(self._results) | set(self._errors)

    def schedule(self, frontier: int) -> None:
        """Keep the window full of requests at/after ``frontier``."""
        with self._cv:
            if self._stopped:
                return
            idle = not (self._queue or self._inflight or self._results or self._errors)
            if idle and self._chunk_rule is not None:
                # Idle gap: safe to re-tier the chunk grid — nothing
                # outstanding can straddle the old/new boundaries.
                self._chunk = max(1, self._chunk_rule() or self._chunk)
            # Drop state the consumer has moved past.  A result is
            # stale only when *fully* below the frontier: a stream may
            # consume bytes server-side as they are read, so dropping
            # an undelivered tail would make them unreachable.
            for off in [o for o, d in self._results.items() if o + len(d) <= frontier]:
                if self._results.pop(off):
                    self.wasted += 1
            for off in [o for o in self._errors if o < frontier]:
                del self._errors[off]
            self._queue = [o for o in self._queue if o >= frontier]
            target = self._target_depth()
            tracked = self._tracked()
            outstanding = len([o for o in tracked if o >= frontier])
            candidate = frontier
            while outstanding < target:
                if self._eof_at is not None and candidate >= self._eof_at:
                    break
                if (
                    candidate not in tracked
                    and self._result_covering(candidate) is None
                    and not self._inflight_covering(candidate)
                    and not (self._covered is not None and self._covered(candidate))
                ):
                    insort(self._queue, candidate)
                    tracked.add(candidate)
                    outstanding += 1
                candidate += self._chunk
            if self._queue:
                self._cv.notify_all()

    def take(self, pos: int) -> Optional[bytes]:
        """Pipelined data covering ``pos``, waiting while in flight.

        ``b""`` means EOF at/after ``pos``; None means the caller must
        demand-read.  A request *covering* ``pos`` (its span may start
        earlier when another store advanced the consumer mid-run) is
        served from ``pos`` onward.  An error recorded at exactly
        ``pos`` re-raises here; other errors are dropped during
        scheduling (the demand path surfaces persistent failures).
        """
        with self._cv:
            while True:
                if pos in self._errors:
                    raise self._errors.pop(pos)
                off = self._result_covering(pos)
                if off is not None:
                    data = self._results.pop(off)
                    return data[pos - off :] if off != pos else data
                if self._eof_at is not None and pos >= self._eof_at:
                    return b""
                # A queued/in-flight request whose span may reach pos:
                # wait for it rather than racing a demand read against
                # bytes it is about to deliver.
                if self._inflight_covering(pos) or any(
                    off <= pos < off + self._chunk for off in self._queue
                ):
                    self._cv.wait(timeout=0.05)
                    continue
                return None

    def next_boundary(self, pos: int) -> Optional[int]:
        """Smallest tracked offset beyond ``pos`` (demand-read clamp)."""
        with self._cv:
            ahead = [o for o in self._tracked() if o > pos]
            return min(ahead) if ahead else None

    def invalidate(self, start: int, end: int) -> None:
        """Bytes ``[start, end)`` changed under the window.

        Queued requests and held results overlapping the range are
        dropped, and in-flight ones are marked stale so their replies
        are discarded on landing instead of being served.  EOF learned
        before the range grew the stream is forgotten.
        """
        with self._cv:
            self._queue = [o for o in self._queue if not (o < end and o + self._chunk > start)]
            for off in [o for o, d in self._results.items() if o < end and o + len(d) > start]:
                if self._results.pop(off):
                    self.wasted += 1
            for off in [o for o in self._errors if start <= o < end]:
                del self._errors[off]
            for off, span in self._inflight.items():
                if off < end and off + span > start:
                    self._stale.add(off)
            if self._eof_at is not None and end > self._eof_at:
                self._eof_at = None

    def discard(self) -> None:
        """A seek invalidated the window: drop queued work, collapse."""
        with self._cv:
            self.wasted += sum(1 for d in self._results.values() if d)
            self._queue.clear()
            self._results.clear()
            self._errors.clear()
            self._depth = 1

    def close(self) -> None:
        with self._cv:
            self._stopped = True
            self.wasted += sum(1 for d in self._results.values() if d)
            self._queue.clear()
            self._results.clear()
            self._cv.notify_all()
        if self._cancel is not None:
            self._cancel()
        for t in self._threads:
            t.join(timeout=2.0)

    # -- workers -----------------------------------------------------------
    def _run(self) -> None:
        # Worker threads adopt the owner's span context so the rpc.client
        # spans of read-ahead fetches join the workflow trace.
        with obs.attach(self._trace_ctx):
            self._run_attached()

    def _run_attached(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopped:
                    self._cv.wait()
                if self._stopped:
                    return
                offset = self._queue.pop(0)
                # A request registered after this offset was queued
                # (from another frontier's grid) may already carry it —
                # skip; the consumer waits on that in-flight request.
                if self._inflight_covering(offset) or self._result_covering(offset) is not None:
                    self._cv.notify_all()
                    continue
                span = self._chunk
                self._inflight[offset] = span
                self._cv.notify_all()
            try:
                data, total = self._fetch(offset, span)
            except BaseException as exc:  # noqa: BLE001 - surfaced on take()
                # A failed fetch of bytes another store already holds is
                # benign: the consumer gets them from there.
                benign = self._covered is not None and self._covered(offset)
                with self._cv:
                    self._inflight.pop(offset, None)
                    stale = offset in self._stale
                    self._stale.discard(offset)
                    if not (self._stopped or benign or stale):
                        self._errors[offset] = exc
                    self._cv.notify_all()
                continue
            with self._cv:
                self._inflight.pop(offset, None)
                if self._stopped or offset in self._stale:
                    self._stale.discard(offset)
                    if data:
                        self.wasted += 1
                else:
                    self._results[offset] = data
                    if data:
                        # The reply may cover offsets queued before it
                        # landed — drop them, they're served.
                        end = offset + len(data)
                        self._queue = [o for o in self._queue if not (offset <= o < end)]
                    if total is not None:
                        self._note_eof_locked(total)
                    elif not data:
                        self._note_eof_locked(offset)
                self._cv.notify_all()


class RunBatcher:
    """Multi-run write-behind buffer pushed out in one flush.

    Contiguous writes extend the active run; a scattered write opens a
    new run instead of forcing a flush.  Every pending run goes to
    ``flush_fn(runs)`` — a list of ``(offset, bytes)`` — once the batch
    reaches ``limit`` bytes or on an explicit :meth:`flush`; the caller
    decides how runs become RPCs (one vectored frame, or one request
    per block-sized piece).
    """

    #: Floor for backpressure-driven limit shrinking.
    MIN_LIMIT = 4096

    def __init__(self, flush_fn: Callable[[List[Tuple[int, bytes]]], None], limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._flush_fn = flush_fn
        self._limit = limit
        self._configured = limit
        self._runs: List[List[Any]] = []  # [start, bytearray]
        self._bytes = 0
        self.flushes = 0           # flush_fn calls
        self.writes_coalesced = 0  # writes absorbed into an existing run

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    @property
    def limit(self) -> int:
        return self._limit

    def adapt(self, stall: Optional[str]) -> None:
        """Tune the batch limit from the server's backpressure verdict.

        ``buffer_full`` halves the limit — a smaller batch fits the free
        headroom instead of stalling (and eventually timing out) against
        capacity.  A clean flush doubles it back toward the configured
        size.  ``slow_reader`` holds steady: the reader is the
        bottleneck, so batch size is neither the problem nor the fix.
        """
        if stall == "buffer_full":
            self._limit = max(self.MIN_LIMIT, self._limit // 2)
        elif stall is None and self._limit < self._configured:
            self._limit = min(self._configured, self._limit * 2)

    def discard(self) -> None:
        """Drop pending runs without flushing (writer abort path)."""
        self._runs = []
        self._bytes = 0

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        if self._runs and offset == self._runs[-1][0] + len(self._runs[-1][1]):
            self._runs[-1][1] += data
            self.writes_coalesced += 1
        else:
            self._runs.append([offset, bytearray(data)])
        self._bytes += len(data)
        if self._bytes >= self._limit:
            self.flush()

    def flush(self) -> None:
        if not self._runs:
            return
        runs = [(start, bytes(buf)) for start, buf in self._runs]
        self._runs = []
        self._bytes = 0
        self._flush_fn(runs)
        self.flushes += 1

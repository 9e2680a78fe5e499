"""Unit tests for the one pipelining layer in ``repro.core.remote_io``.

``ReadAheadWindow`` and ``RunBatcher`` serve both the GridFTP proxy and
the Grid Buffer reader/writer; here they run over fake fetch and flush
callables, so every case is deterministic and needs no server.
"""

import random
import sys
import threading
import time

import pytest

from repro.core.remote_io import ReadAheadWindow, RunBatcher

CHUNK = 4


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class _GatedFetch:
    """A fetch whose replies wait until the test releases them."""

    def __init__(self, source: bytes):
        self.source = source
        self.gate = threading.Event()
        self.started = []

    def __call__(self, offset, length):
        self.started.append(offset)
        self.gate.wait()
        return self.source[offset : offset + length], None


class TestReadAheadWindow:
    def test_take_returns_empty_at_eof_learned_from_total(self):
        data = b"abcdefghij"

        def fetch(offset, length):
            return data[offset : offset + length], len(data)

        window = ReadAheadWindow(fetch, CHUNK, 1)
        try:
            window.schedule(0)
            assert window.take(0) == b"abcd"
            assert window.take(len(data)) == b""
            assert window.take(len(data) + 100) == b""
        finally:
            window.close()

    def test_error_at_pos_reraised_by_take(self):
        def fetch(offset, length):
            raise ConnectionResetError(f"lost {offset}")

        window = ReadAheadWindow(fetch, CHUNK, 1)
        try:
            window.schedule(8)
            with pytest.raises(ConnectionResetError, match="lost 8"):
                window.take(8)
            # Reported once: the next take finds nothing and demand-reads.
            assert window.take(8) is None
        finally:
            window.close()

    def test_invalidate_discards_stale_in_flight_result(self):
        fetch = _GatedFetch(b"old-bytes-here")
        window = ReadAheadWindow(fetch, CHUNK, 1)
        try:
            window.schedule(4)
            _wait_for(lambda: fetch.started == [4])
            window.invalidate(6, 7)  # dirties the request in flight
            fetch.gate.set()
            assert window.take(4) is None  # stale reply never served
            assert window.wasted == 1
        finally:
            window.close()

    def test_invalidate_forgets_eof_the_write_moved(self):
        window = ReadAheadWindow(lambda offset, length: (b"", None), CHUNK, 1)
        try:
            window.note_eof(8)
            assert window.take(8) == b""
            window.invalidate(8, 12)  # a write grew the stream
            assert window.take(8) is None
        finally:
            window.close()

    def test_discard_resets_depth_to_one(self):
        window = ReadAheadWindow(lambda offset, length: (b"x" * length, None), CHUNK, 4)
        try:
            window.note_hit()
            window.note_hit()
            assert window._target_depth() == 4
            window.discard()
            assert window._target_depth() == 1
        finally:
            window.close()

    def test_close_returns_promptly_while_fetch_blocked(self):
        fetch = _GatedFetch(b"z" * 64)
        window = ReadAheadWindow(fetch, CHUNK, 2, cancel=fetch.gate.set)
        window.schedule(0)
        _wait_for(lambda: fetch.started)
        t0 = time.perf_counter()
        window.close()
        assert time.perf_counter() - t0 < 1.0
        assert all(not t.is_alive() for t in window._threads)

    def test_covered_offsets_are_not_requested(self):
        requested = []

        def fetch(offset, length):
            requested.append(offset)
            return b"y" * length, None

        window = ReadAheadWindow(fetch, CHUNK, 2, covered=lambda offset: offset == 0)
        try:
            window.note_hit()
            window.schedule(0)
            assert window.take(4) == b"yyyy"
            assert 4 in requested and 0 not in requested
        finally:
            window.close()


class TestWindowStress:
    def test_invalidate_never_lets_old_bytes_through(self):
        """Eight workers race a writer: once ``invalidate`` returns, no
        take may serve bytes fetched before the write."""
        nchunks = 16
        versions = [0] * nchunks
        lock = threading.Lock()

        def fetch(offset, length):
            with lock:
                version = versions[offset // CHUNK]
            time.sleep(random.random() * 0.002)  # widen the landing race
            return version.to_bytes(CHUNK, "big"), None

        rng = random.Random(7)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        window = ReadAheadWindow(fetch, CHUNK, 8)
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                for _ in range(3):
                    window.note_hit()
                window.schedule(0)
                chunk = rng.randrange(nchunks)
                with lock:
                    versions[chunk] += 1
                window.invalidate(chunk * CHUNK, (chunk + 1) * CHUNK)
                window.schedule(0)
                for k in range(nchunks):
                    data = window.take(k * CHUNK)
                    if data:
                        assert int.from_bytes(data[:CHUNK], "big") == versions[k]
                window.discard()
        finally:
            sys.setswitchinterval(old_interval)
            window.close()
        assert all(not t.is_alive() for t in window._threads)


class TestRunBatcher:
    def test_merges_contiguous_and_keeps_scattered_runs(self):
        flushed = []
        batcher = RunBatcher(flushed.append, 100)
        batcher.write(0, b"aa")
        batcher.write(2, b"bb")  # contiguous: extends the run
        batcher.write(50, b"cc")  # scattered: a second run, no flush
        assert flushed == []
        assert batcher.pending_bytes == 6
        batcher.flush()
        assert flushed == [[(0, b"aabb"), (50, b"cc")]]
        assert batcher.writes_coalesced == 1

    def test_adapt_halves_and_restores_limit(self):
        batcher = RunBatcher(lambda runs: None, 64 * 1024)
        batcher.adapt("buffer_full")
        assert batcher.limit == 32 * 1024
        batcher.adapt("slow_reader")  # the reader is the bottleneck: hold
        assert batcher.limit == 32 * 1024
        batcher.adapt(None)
        assert batcher.limit == 64 * 1024
        batcher.adapt(None)  # never above the configured size
        assert batcher.limit == 64 * 1024
        for _ in range(20):
            batcher.adapt("buffer_full")
        assert batcher.limit == RunBatcher.MIN_LIMIT

"""Async Grid Buffer coverage: batched consume, adaptive chunking,
and thousands-of-readers concurrency without per-reader server threads.

Complements ``test_gridbuffer_fastpath.py`` (PR 3 vectored path) with
the async-engine additions: ``gb.consume_multi`` + the shared-cache ack
aggregator, service-level ``mark_consumed_multi`` semantics, bandwidth-
tiered read-ahead chunk sizing, and the headline scaling property — a
parked reader costs a future, not a thread.
"""

import asyncio
import threading

import pytest

from repro.gridbuffer.client import GridBufferClient, _ReadAheadWindow
from repro.gridbuffer.protocol import OP_READ
from repro.gridbuffer.service import GridBufferError
from repro.transport.aio import AsyncRpcClient


@pytest.fixture()
def client(buffer_server):
    c = GridBufferClient(*buffer_server.address)
    yield c
    c.close()


class TestConsumeMulti:
    def test_two_readers_one_frame(self, client):
        client.create_stream("cm", n_readers=2)
        client.register_reader("cm", "r0")
        client.register_reader("cm", "r1")
        client.write("cm", 0, b"z" * 8192)
        ok = client.consume_multi("cm", [("r0", [(0, 8192)]), ("r1", [(0, 8192)])])
        assert ok is True
        stats = client.stats("cm")
        assert stats["bytes_read"] == 2 * 8192  # both readers accounted
        assert stats["blocks_in_table"] == 0    # one GC pass emptied it

    def test_empty_entries_is_noop(self, client):
        assert client.consume_multi("whatever", []) is True

    def test_mark_consumed_multi_validates_all_readers_upfront(self, buffer_server):
        """A bad reader anywhere in the batch rejects the whole frame."""
        service = buffer_server.service
        service.create_stream("mv", n_readers=1)
        service.register_reader("mv", "real")
        service.write("mv", 0, b"k" * 4096)
        with pytest.raises(GridBufferError):
            service.mark_consumed_multi(
                "mv", [("real", [(0, 4096)]), ("ghost", [(0, 4096)])]
            )
        # Nothing was applied: the valid entry must not have been
        # consumed before validation rejected the batch.
        assert service.stats("mv").blocks_in_table == 1


class TestSharedAckAggregator:
    def test_colocated_readers_batch_acks_into_one_frame(
        self, client, buffer_server, monkeypatch
    ):
        """Acks from co-located readers pool and flush as consume_multi."""
        from repro.gridbuffer.client import BufferReader

        monkeypatch.setattr(BufferReader, "ACK_FLUSH_BYTES", 1 << 30)  # flush on close only
        payload = bytes(i % 251 for i in range(32 * 1024))
        w = client.open_writer("sha", n_readers=2, cache=True)
        w.write(payload)
        w.close()
        r0 = client.open_reader("sha", reader_id="a", shared_cache=True)
        r1 = client.open_reader("sha", reader_id="b", shared_cache=True)
        assert r0.read() == payload      # real fetches populate the cache
        assert r1.read() == payload      # served locally, acks queued
        assert r1.shared_hits > 0
        shared = r1._shared
        assert shared is not None
        r0.close()
        r1.close()                       # drains the pooled acks
        assert shared.ack_flushes >= 1
        assert shared.drain_acks() is None  # nothing left behind
        stats = client.stats("sha")
        assert stats["bytes_read"] >= 2 * len(payload)
        assert stats["blocks_in_table"] == 0

    def test_aggregate_threshold_triggers_flush(self, client):
        client.create_stream("thr", n_readers=3)
        client.register_reader("thr", "a")
        client.register_reader("thr", "b")
        client.write("thr", 0, b"m" * 4096)
        r = client.open_reader("thr", reader_id="ignored", shared_cache=True)
        shared = r._shared
        # Below the threshold nothing flushes; crossing it returns the
        # pooled batch covering *both* readers.
        assert shared.ack(("a"), 0, 100, flush_bytes=300) is None
        entries = shared.ack("b", 0, 250, flush_bytes=300)
        assert entries is not None
        assert sorted(rid for rid, _ in entries) == ["a", "b"]
        r.close()

    def test_contiguous_acks_merge_per_reader(self, client):
        client.create_stream("mrg", n_readers=1)
        r = client.open_reader("mrg", reader_id="r", shared_cache=True)
        shared = r._shared
        shared.ack("r", 0, 100, flush_bytes=1 << 30)
        shared.ack("r", 100, 200, flush_bytes=1 << 30)
        shared.ack("r", 300, 400, flush_bytes=1 << 30)
        entries = shared.drain_acks()
        assert entries == [("r", [[0, 200], [300, 400]])]
        r.close()


class _FakeMonitor:
    def __init__(self, bandwidth, latency=0.001):
        self._bw = bandwidth
        self._lat = latency

    def bandwidth(self, peer):
        return self._bw

    def latency(self, peer):
        return self._lat

    def record(self, peer, op, nbytes, seconds):
        pass


class TestAdaptiveChunk:
    @pytest.mark.parametrize(
        ("bandwidth", "expected"),
        [
            (512 * 1024, 16 * 1024),        # < 1 MB/s
            (4 << 20, 64 * 1024),           # < 8 MB/s
            (32 << 20, 256 * 1024),         # < 64 MB/s
            (500 << 20, 1024 * 1024),       # above the top tier
        ],
    )
    def test_chunk_follows_bandwidth_tier(self, client, bandwidth, expected):
        client.create_stream("tier", n_readers=1)
        client.register_reader("tier", "r")
        client.monitor = _FakeMonitor(bandwidth)
        window = _ReadAheadWindow(client, "tier", "r", None, 64 * 1024, 1)
        try:
            assert window._target_chunk() == expected
            window.schedule(0)  # idle window: re-tiers before queueing
            assert window._chunk == expected
        finally:
            window.close()

    def test_no_monitor_keeps_configured_chunk(self, client):
        client.create_stream("fix", n_readers=1)
        client.register_reader("fix", "r")
        window = _ReadAheadWindow(client, "fix", "r", None, 64 * 1024, 1)
        try:
            assert window._target_chunk() == 64 * 1024
        finally:
            window.close()

    def test_no_retier_while_requests_outstanding(self, client):
        """An in-flight span must never be re-gridded underneath."""
        client.create_stream("busy", n_readers=1)
        client.register_reader("busy", "r")
        client.monitor = _FakeMonitor(500 << 20)
        window = _ReadAheadWindow(client, "busy", "r", None, 64 * 1024, 1)
        try:
            with window._cv:
                window._inflight[0] = 64 * 1024  # simulate an outstanding request
            window.schedule(0)
            assert window._chunk == 64 * 1024  # unchanged while busy
            with window._cv:
                window._inflight.clear()
                window._queue.clear()
            window.schedule(1 << 40)  # idle again (past EOF region is fine)
            assert window._chunk == 1024 * 1024
        finally:
            window.close()


class TestManyAsyncReaders:
    N = 128

    def test_parked_readers_hold_no_server_threads(self, buffer_server):
        """N concurrently blocked reads park futures, not threads.

        All N readers issue a blocking ``gb.read`` before any byte is
        written; with the threaded server that used to pin N handler
        threads.  The async engine must keep the process thread count
        flat while all N are parked, then deliver everyone when the
        writer shows up.
        """
        ctl = GridBufferClient(*buffer_server.address)
        ctl.create_stream("fan", n_readers=self.N)
        for i in range(self.N):
            ctl.register_reader("fan", f"r{i}")
        payload = b"w" * 4096
        parked_threads = {}

        async def one(addr, i):
            rpc = AsyncRpcClient(*addr, timeout=30.0)
            try:
                _, data = await rpc.call(
                    OP_READ,
                    {
                        "name": "fan",
                        "reader_id": f"r{i}",
                        "offset": 0,
                        "length": len(payload),
                        "timeout": 20.0,
                    },
                )
                return data
            finally:
                await rpc.close()

        async def go(addr):
            baseline = threading.active_count()
            tasks = [asyncio.create_task(one(addr, i)) for i in range(self.N)]
            await asyncio.sleep(0.5)  # let every read park server-side
            parked_threads["delta"] = threading.active_count() - baseline
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, ctl.write, "fan", 0, payload)
            await loop.run_in_executor(None, ctl.close_writer, "fan")
            return await asyncio.gather(*tasks)

        try:
            results = asyncio.run(go(buffer_server.address))
        finally:
            ctl.close()
        assert results == [payload] * self.N
        # The parked phase must not have grown a thread per reader.
        assert parked_threads["delta"] <= 8, (
            f"{parked_threads['delta']} new threads while {self.N} readers parked"
        )

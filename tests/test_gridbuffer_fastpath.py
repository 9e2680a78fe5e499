"""Fast-path tests: vectored ops, shared cache, shutdown.

Covers the Grid Buffer fast path end to end over real TCP: vectored
``write_multi``/``read_multi``/``consume_multi`` round trips,
multi-reader broadcast under
interleaved seeks and re-reads (asserting delete-on-read GC and the
per-reader lag gauges stay exact), writer flush-deadline visibility,
reader shutdown hygiene, and the per-call open-poll env knob.
"""

import hashlib
import threading
import time

import pytest

from repro import obs
from repro.gridbuffer.client import GridBufferClient, _open_poll_interval
from repro.gridbuffer.protocol import OP_WRITE_MULTI

PAYLOAD = bytes((i * 7 + i // 256) % 256 for i in range(128 * 1024))


@pytest.fixture()
def client(buffer_server):
    c = GridBufferClient(*buffer_server.address)
    yield c
    c.close()


class TestVectoredOps:
    def test_write_multi_scatters_in_one_frame(self, client):
        client.create_stream("vm")
        client.register_reader("vm", "r")
        labels = {"op": OP_WRITE_MULTI}
        before = obs.value("rpc_client_calls_total", labels) or 0.0
        client.write_multi("vm", [(0, b"aaaa"), (4, b"bbbb"), (12, b"dddd"), (8, b"cccc")])
        client.close_writer("vm")
        assert client.read("vm", "r", 0, 16) == b"aaaabbbbccccdddd"
        assert obs.value("rpc_client_calls_total", labels) == before + 1  # one frame

    def test_read_window_returns_contiguous_run_and_total(self, client):
        client.create_stream("rw")
        client.register_reader("rw", "r")
        for off in range(0, 12288, 4096):
            client.write("rw", off, PAYLOAD[off : off + 4096])
        client.close_writer("rw")
        data, total = client.read_window("rw", "r", 0, 1 << 20)
        assert data == PAYLOAD[:12288]  # one reply, three blocks
        assert total == 12288

    def test_read_window_min_bytes_waits_for_more(self, client):
        client.create_stream("mb")
        client.register_reader("mb", "r")
        client.write("mb", 0, b"x" * 100)

        def late_writer():
            time.sleep(0.05)
            client.write("mb", 100, b"y" * 100)

        t = threading.Thread(target=late_writer)
        t.start()
        data, _ = client.read_window("mb", "r", 0, 4096, min_bytes=150)
        t.join()
        assert len(data) >= 150  # blocked past the first write

    def test_consume_acks_without_transfer(self, client, buffer_server):
        client.create_stream("ck")
        client.register_reader("ck", "r")
        client.write("ck", 0, b"z" * 8192)
        assert client.consume_multi("ck", [("r", [(0, 8192)])]) is True
        stats = client.stats("ck")
        assert stats["bytes_read"] == 8192     # counted as served
        assert stats["blocks_in_table"] == 0   # delete-on-read fired


class TestBroadcastStress:
    N_READERS = 3

    def test_interleaved_seeks_rereads_gc_and_lag(self, client, buffer_server):
        """Broadcast + cache stream under seek/re-read churn.

        Every reader re-reads a prefix mid-stream (cache-file path),
        then drains to EOF.  Afterwards delete-on-read GC must have
        emptied the hash table and every per-reader lag gauge must be
        zero even though some bytes were served via the shared cache
        and acked with ``gb.consume_multi``.
        """
        name = "stress"
        digest = hashlib.sha256(PAYLOAD).hexdigest()
        w = client.open_writer(
            name, n_readers=self.N_READERS, cache=True, coalesce_bytes=16 * 1024
        )
        readers = [
            client.open_reader(
                name,
                reader_id=f"r{i}",
                read_ahead=True,
                read_ahead_depth=3,
                shared_cache=True,
            )
            for i in range(self.N_READERS)
        ]
        errors = []

        def write_all():
            try:
                for off in range(0, len(PAYLOAD), 4096):
                    w.write(PAYLOAD[off : off + 4096])
                w.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def read_all(r, i):
            try:
                first = r.read(24 * 1024)
                # Interleave: jump back and re-read a slice (cache hit
                # server-side or shared-cache hit locally), then resume.
                r.seek(4096 * i)
                again = r.read(8192)
                assert again == PAYLOAD[4096 * i : 4096 * i + 8192]
                r.seek(len(first))
                rest = r.read()
                got = first + rest
                assert hashlib.sha256(got).hexdigest() == digest, f"reader {i} corrupt"
                r.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=write_all)] + [
            threading.Thread(target=read_all, args=(r, i)) for i, r in enumerate(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [], errors

        # Delete-on-read GC: every block consumed by all three readers
        # (via real reads or consume acks) must have left the table.
        stats = client.stats(name)
        assert stats["blocks_in_table"] == 0
        assert stats["bytes_in_table"] == 0
        # Each reader accounted for at least the full stream (re-reads
        # can only add); vectored serving must not lose accounting.
        assert stats["bytes_read"] >= self.N_READERS * len(PAYLOAD)

        # Per-reader lag gauges: everyone drained to the high-water mark.
        snap = obs.snapshot()
        lag = snap.get("buffer_reader_lag_bytes")
        assert lag is not None
        ours = [s for s in lag["series"] if s["labels"].get("stream") == name]
        assert len(ours) == self.N_READERS
        assert all(s["value"] == 0 for s in ours), ours


class TestWriterFlushDeadline:
    def test_deadline_pushes_partial_batch(self, client):
        w = client.open_writer("dl", coalesce_bytes=1 << 20, flush_after=0.05)
        w.write(b"p" * 1000)  # far below the batch limit
        deadline = time.monotonic() + 5.0
        while client.high_water("dl") < 1000:
            assert time.monotonic() < deadline, "deadline flush never happened"
            time.sleep(0.01)
        assert w.rpc_writes == 1
        w.close()

    def test_zero_deadline_keeps_bytes_local_until_flush(self, client):
        w = client.open_writer("dl0", coalesce_bytes=1 << 20, flush_after=0)
        w.write(b"p" * 1000)
        time.sleep(0.15)
        assert client.high_water("dl0") == 0  # nothing pushed
        w.flush()
        assert client.high_water("dl0") == 1000
        w.close()


class TestReaderShutdown:
    def test_close_joins_window_threads_mid_rpc(self, client):
        """close() must unblock in-flight window RPCs and join workers."""
        client.create_stream("shut")
        client.write("shut", 0, b"a" * 4096)  # writer stays open
        r = client.open_reader("shut", read_ahead=True, read_ahead_depth=4)
        assert r.read(4096) == b"a" * 4096
        # The window is now blocked server-side waiting for bytes that
        # will never arrive (writer never closes).
        time.sleep(0.1)
        window = r._ra
        workers = list(window._threads)
        t0 = time.perf_counter()
        r.close()
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"close() hung {elapsed:.1f}s on blocked read-ahead"
        assert all(not t.is_alive() for t in workers), "window thread leaked"
        assert r._ra is None and r._rpc is None  # connections released

    def test_repeated_open_close_leaks_no_threads(self, client):
        client.create_stream("leak", n_readers=5)
        client.write("leak", 0, b"b" * 4096)
        client.close_writer("leak")
        for i in range(5):
            r = client.open_reader("leak", reader_id=f"r{i}", read_ahead=True)
            assert r.read() == b"b" * 4096
            r.close()
        lingering = [
            t.name for t in threading.enumerate() if t.name.startswith("gb-window")
        ]
        assert lingering == [], lingering


class TestOpenPollEnv:
    def test_interval_read_per_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUFFER_OPEN_POLL", "0.123")
        assert _open_poll_interval() == 0.123
        monkeypatch.setenv("REPRO_BUFFER_OPEN_POLL", "0.456")
        assert _open_poll_interval() == 0.456  # no import-time caching

    def test_open_reader_uses_env_interval(self, client, monkeypatch):
        import repro.gridbuffer.client as mod

        monkeypatch.setenv("REPRO_BUFFER_OPEN_POLL", "0.321")
        seen = []
        monkeypatch.setattr(mod.time, "sleep", lambda s: seen.append(s))
        with pytest.raises(TimeoutError):
            client.open_reader("never-created", open_timeout=0.05)
        assert 0.321 in seen

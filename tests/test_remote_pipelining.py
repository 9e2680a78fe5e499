"""Pipelined remote-IO correctness: prefetch, coalescing, parallel streams.

Every scenario checks byte-identity against plain local reads — the
pipeline must be invisible except in the counters.
"""

import hashlib
import io
import threading

import pytest

from repro.core.remote_client import RemoteFileClient, RemoteProxyFile
from repro.core.remote_io import RunBatcher
from repro.transport.gridftp import GridFtpClient, GridFtpServer

PATTERN = bytes(i % 256 for i in range(64_000))
BLOCK = 1024


class _GatedStore:
    """In-memory stand-in for a GridFTP client whose read-ahead fetches
    snapshot the bytes at once but reply only when ``gate`` opens."""

    def __init__(self, data: bytes):
        self.data = bytearray(data)
        self.fetching = threading.Event()
        self.gate = threading.Event()

    def open_channel(self):
        return _NullChannel()

    def size(self, path):
        return len(self.data)

    def read_block(self, path, offset, length):
        return bytes(self.data[offset : offset + length])

    def read_block_via(self, channel, path, offset, length):
        snapshot = bytes(self.data[offset : offset + length])
        self.fetching.set()
        self.gate.wait(5.0)
        return snapshot

    def write_block(self, path, offset, data, truncate=False):
        self.data[offset : offset + len(data)] = data
        return len(data)


class _NullChannel:
    def close_all(self):
        pass

    def close(self):
        pass


@pytest.fixture()
def export(tmp_path):
    root = tmp_path / "export"
    root.mkdir()
    (root / "data.bin").write_bytes(PATTERN)
    server = GridFtpServer(root)
    with server:
        yield server, root


@pytest.fixture()
def remote(export, tmp_path):
    server, _ = export
    client = GridFtpClient(*server.address, block_size=BLOCK)
    yield RemoteFileClient(client, scratch_dir=tmp_path / "scratch")
    client.close()


class TestPrefetchCorrectness:
    def test_sequential_read_pipelines_and_is_byte_identical(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        out = bytearray()
        while True:
            chunk = f.read(BLOCK)
            if not chunk:
                break
            out += chunk
        assert bytes(out) == PATTERN
        assert f.prefetch_hits > 0, "sequential read never engaged the pipeline"
        # Demand RPCs must be well below one per block once the window opens.
        nblocks = -(-len(PATTERN) // BLOCK)
        assert f.rpc_reads < nblocks
        f.close()

    def test_sequential_then_random_seek_interleave(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        local = io.BytesIO(PATTERN)
        # Sequential warm-up to open the prefetch window…
        for _ in range(8):
            assert f.read(BLOCK) == local.read(BLOCK)
        # …then hop around: forward, backward, unaligned, repeat.
        for offset in (40_000, 3, 63_000, 512, 40_000, 31_999):
            f.seek(offset)
            local.seek(offset)
            assert f.read(700) == local.read(700)
        # …then sequential again from an arbitrary point.
        f.seek(10_000)
        local.seek(10_000)
        for _ in range(10):
            assert f.read(BLOCK) == local.read(BLOCK)
        f.close()

    def test_reads_straddling_block_and_eof_boundaries(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        local = io.BytesIO(PATTERN)
        # Straddle every block boundary with an odd-sized read.
        f.seek(BLOCK - 100)
        local.seek(BLOCK - 100)
        for _ in range(20):
            assert f.read(333) == local.read(333)
        # Read straddling EOF: asks past the end, gets the tail.
        f.seek(len(PATTERN) - 50)
        assert f.read(500) == PATTERN[-50:]
        # Read exactly at EOF.
        assert f.read(10) == b""
        # read(-1) from mid-file.
        f.seek(60_000)
        assert f.read() == PATTERN[60_000:]
        f.close()

    def test_write_invalidates_in_flight_prefetch(self, remote, export):
        _, root = export
        f = remote.open_proxy("/data.bin", "r+", block_size=BLOCK)
        # Sequential reads to open the window and put blocks in flight.
        f.read(BLOCK)
        f.read(BLOCK)
        # Overwrite a block that is (or may be) in the prefetch window.
        target = 5 * BLOCK
        f.seek(target)
        f.write(b"\xaa" * BLOCK)
        f.seek(target)
        assert f.read(BLOCK) == b"\xaa" * BLOCK, "stale prefetched block served"
        f.close()
        on_disk = (root / "data.bin").read_bytes()
        assert on_disk[target : target + BLOCK] == b"\xaa" * BLOCK
        assert on_disk[:BLOCK] == PATTERN[:BLOCK]

    def test_partial_write_discards_block_in_flight(self):
        """A write into a block the window is still fetching must not let
        the fetched (old) copy be served when the block is read back."""
        store = _GatedStore(PATTERN)
        f = RemoteProxyFile(store, "/data.bin", writable=True, block_size=BLOCK)
        f.read(BLOCK)
        f.read(BLOCK)  # sequential: the window starts fetching block 2
        assert store.fetching.wait(5.0)
        f.write(b"\xbb" * 100)  # dirties block 2 under the fetch
        f.seek(2 * BLOCK)  # same block: the window is not discarded
        store.gate.set()  # the old copy lands now
        assert f.read(BLOCK) == b"\xbb" * 100 + PATTERN[2 * BLOCK + 100 : 3 * BLOCK]
        f.close()

    def test_concurrent_readers_share_one_client(self, remote):
        digests = {}
        errors = []

        def reader(idx: int) -> None:
            try:
                f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
                h = hashlib.sha256()
                while True:
                    chunk = f.read(3 * BLOCK + 7)
                    if not chunk:
                        break
                    h.update(chunk)
                f.close()
                digests[idx] = h.hexdigest()
            except BaseException as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected = hashlib.sha256(PATTERN).hexdigest()
        assert all(d == expected for d in digests.values())

    def test_prefetch_disabled_still_correct(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK, prefetch=False)
        assert f.read() == PATTERN
        assert f.prefetch_hits == 0
        f.close()

    def test_prefetch_counters_observable(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        f.read(8 * BLOCK)
        assert f.rpc_reads >= 1
        assert f.prefetch_hits + f.rpc_reads >= 8
        assert f.prefetch_wasted >= 0
        f.close()


class TestWriteCoalescing:
    def test_small_sequential_writes_batched(self, remote, export):
        _, root = export
        f = remote.open_proxy("/out.bin", "w", block_size=BLOCK)
        payload = bytes(i % 97 for i in range(10 * BLOCK))
        for i in range(0, len(payload), 64):  # 160 tiny writes
            f.write(payload[i : i + 64])
        f.close()
        assert (root / "out.bin").read_bytes() == payload
        # 10 full blocks => ~10 put RPCs, not 160.
        assert f.put_rpcs <= 11

    def test_flush_pushes_pending_writes(self, remote, export):
        _, root = export
        f = remote.open_proxy("/out.bin", "w", block_size=BLOCK)
        f.write(b"abc")
        f.flush()
        assert (root / "out.bin").read_bytes() == b"abc"
        f.close()

    def test_seek_flushes_then_read_sees_own_writes(self, remote):
        f = remote.open_proxy("/out.bin", "w+", block_size=BLOCK)
        f.write(b"hello world")
        f.seek(0)
        assert f.read(11) == b"hello world"
        f.close()

    def test_non_contiguous_writes_correct(self, remote, export):
        _, root = export
        f = remote.open_proxy("/out.bin", "w", block_size=BLOCK)
        f.write(b"AAAA")
        f.seek(100)
        f.write(b"BBBB")
        f.seek(4)
        f.write(b"CCCC")
        f.close()
        data = (root / "out.bin").read_bytes()
        assert data[:8] == b"AAAACCCC"
        assert data[100:104] == b"BBBB"

    def test_coalescer_unit_behaviour(self):
        flushed = []
        c = RunBatcher(flushed.append, 8)
        c.write(0, b"ab")
        c.write(2, b"cd")
        assert flushed == []  # still below the batch limit
        c.write(4, b"efghijkl")  # crosses the limit: the run goes out whole
        assert flushed == [[(0, b"abcdefghijkl")]]
        c.write(12, b"mn")
        c.flush()
        assert flushed == [[(0, b"abcdefghijkl")], [(12, b"mn")]]
        assert c.writes_coalesced >= 1


class TestAppendModes:
    """POSIX append must create a missing file (regression)."""

    def test_proxy_append_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_proxy("/fresh.log", "a", block_size=BLOCK)
        f.write(b"line-1\n")
        f.close()
        assert (root / "fresh.log").read_bytes() == b"line-1\n"

    def test_proxy_append_plus_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_proxy("/fresh2.log", "a+", block_size=BLOCK)
        f.write(b"x")
        f.close()
        assert (root / "fresh2.log").read_bytes() == b"x"

    def test_proxy_append_existing_appends(self, remote, export):
        _, root = export
        f = remote.open_proxy("/data.bin", "a", block_size=BLOCK)
        f.write(b"TAIL")
        f.close()
        assert (root / "data.bin").read_bytes() == PATTERN + b"TAIL"

    def test_copy_append_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_copy("/made-by-copy.log", "a")
        f.write(b"created\n")
        f.close()
        assert (root / "made-by-copy.log").read_bytes() == b"created\n"

    def test_copy_append_plus_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_copy("/made-by-copy2.log", "a+")
        f.write(b"z")
        f.close()
        assert (root / "made-by-copy2.log").read_bytes() == b"z"

    def test_copy_append_missing_then_empty_close_creates_empty(self, remote, export):
        _, root = export
        f = remote.open_copy("/empty-append.log", "a")
        f.close()
        assert (root / "empty-append.log").read_bytes() == b""

    def test_read_modes_still_raise_on_missing(self, remote):
        with pytest.raises(FileNotFoundError):
            remote.open_proxy("/nope", "r")
        with pytest.raises(FileNotFoundError):
            remote.open_copy("/nope", "r")


class TestBulkTransfers:
    def test_fetch_detects_short_copy(self, export, tmp_path):
        server, root = export
        client = GridFtpClient(*server.address, block_size=BLOCK)

        # Shrink the file after size() is measured: the single-stream
        # loop's early break must not silently return the full total.
        real_read = client.read_block
        state = {"shrunk": False}

        def shrinking_read(path, offset, length):
            if not state["shrunk"] and offset >= 8 * BLOCK:
                (root / "data.bin").write_bytes(PATTERN[: 8 * BLOCK])
                state["shrunk"] = True
            return real_read(path, offset, length)

        client.read_block = shrinking_read
        with pytest.raises(IOError, match="short fetch"):
            client.fetch_file("/data.bin", tmp_path / "short.bin")
        client.close()

    def test_parallel_store_roundtrip(self, export, tmp_path):
        server, root = export
        payload = bytes((i * 7) % 256 for i in range(300_000))
        src = tmp_path / "upload.bin"
        src.write_bytes(payload)
        with GridFtpClient(*server.address, parallel_streams=4, block_size=8192) as client:
            n = client.store_file(src, "/incoming/upload.bin")
        assert n == len(payload)
        stored = (root / "incoming" / "upload.bin").read_bytes()
        assert hashlib.sha256(stored).hexdigest() == hashlib.sha256(payload).hexdigest()

    def test_parallel_store_overwrites_longer_file(self, export, tmp_path):
        server, root = export
        (root / "big-old.bin").write_bytes(b"\xff" * 500_000)
        payload = bytes(i % 251 for i in range(100_000))
        src = tmp_path / "new.bin"
        src.write_bytes(payload)
        with GridFtpClient(*server.address, parallel_streams=3, block_size=4096) as client:
            client.store_file(src, "/big-old.bin")
        assert (root / "big-old.bin").read_bytes() == payload

    def test_store_empty_file(self, export, tmp_path):
        server, root = export
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        with GridFtpClient(*server.address, parallel_streams=4) as client:
            assert client.store_file(src, "/empty.out") == 0
        assert (root / "empty.out").read_bytes() == b""

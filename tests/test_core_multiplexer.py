"""Integration tests for the File Multiplexer: all six IO modes."""

import threading

import pytest

from repro.core.multiplexer import FileMultiplexer, FMError, GridContext
from repro.core.replica import ReplicaSelector
from repro.gns.records import BufferEndpoint, GnsRecord, IOMode
from repro.grid.nws import Measurement, NetworkWeatherService
from repro.grid.replica_catalog import Replica, ReplicaCatalog


@pytest.fixture()
def grid(hosts, ftp_beta, buffer_server, name_service, gns, tmp_path):
    """A fully wired two-machine grid; returns (fm_alpha, fm_beta, env)."""
    beta = hosts.host("beta")
    beta.resolve("/exports/data.bin").parent.mkdir(parents=True, exist_ok=True)
    beta.resolve("/exports/data.bin").write_bytes(b"B" * 5000)

    catalog = ReplicaCatalog()
    nws = NetworkWeatherService()
    selector = ReplicaSelector(catalog, nws)

    def ctx(machine):
        return GridContext(
            machine=machine,
            gns=gns,
            hosts=hosts,
            gridftp={"beta": ftp_beta.address},
            buffer_locator=lambda m: buffer_server.address,
            selector=selector,
            scratch_dir=tmp_path / "scratch",
        )

    fm_a = FileMultiplexer(ctx("alpha"))
    fm_b = FileMultiplexer(ctx("beta"))
    yield {
        "fm_alpha": fm_a,
        "fm_beta": fm_b,
        "ns": name_service,
        "catalog": catalog,
        "nws": nws,
        "hosts": hosts,
    }
    fm_a.close()
    fm_b.close()


class TestLocalMode:
    def test_default_open_is_local(self, grid):
        fm = grid["fm_alpha"]
        f = fm.open("/plain.txt", "w")
        assert f.io_mode is IOMode.LOCAL
        f.write(b"x")
        f.close()
        assert grid["hosts"].host("alpha").resolve("/plain.txt").read_bytes() == b"x"

    def test_local_path_rewrite(self, grid):
        grid["ns"].add(
            GnsRecord(machine="alpha", path="/virtual.txt", mode=IOMode.LOCAL, local_path="/real.txt")
        )
        fm = grid["fm_alpha"]
        f = fm.open("/virtual.txt", "w")
        f.write(b"moved")
        f.close()
        assert grid["hosts"].host("alpha").resolve("/real.txt").read_bytes() == b"moved"


class TestRemoteModes:
    def test_remote_proxy_read(self, grid):
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/r/data.bin",
                mode=IOMode.REMOTE,
                remote_host="beta",
                remote_path="/exports/data.bin",
            )
        )
        f = grid["fm_alpha"].open("/r/data.bin", "r")
        assert f.io_mode is IOMode.REMOTE
        assert f.read(10) == b"B" * 10
        f.close()

    def test_copy_in_read(self, grid):
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/c/data.bin",
                mode=IOMode.COPY,
                remote_host="beta",
                remote_path="/exports/data.bin",
            )
        )
        f = grid["fm_alpha"].open("/c/data.bin", "r")
        assert len(f.read()) == 5000
        f.close()

    def test_copy_out_on_close(self, grid):
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/c/out.bin",
                mode=IOMode.COPY,
                remote_host="beta",
                remote_path="/exports/out.bin",
            )
        )
        f = grid["fm_alpha"].open("/c/out.bin", "w")
        f.write(b"pushed")
        f.close()
        assert grid["hosts"].host("beta").resolve("/exports/out.bin").read_bytes() == b"pushed"


class TestReplicaModes:
    def _register(self, grid, data_alpha=None):
        beta = grid["hosts"].host("beta")
        beta.resolve("/rep/fileA").parent.mkdir(parents=True, exist_ok=True)
        beta.resolve("/rep/fileA").write_bytes(b"beta-replica")
        grid["catalog"].register("lfn://fileA", Replica("beta", "/rep/fileA", size=12))
        if data_alpha is not None:
            alpha = grid["hosts"].host("alpha")
            alpha.resolve("/rep/fileA").parent.mkdir(parents=True, exist_ok=True)
            alpha.resolve("/rep/fileA").write_bytes(data_alpha)
            grid["catalog"].register("lfn://fileA", Replica("alpha", "/rep/fileA", size=len(data_alpha)))
        grid["nws"].record("beta", "alpha", Measurement(time=0, bandwidth=1e6, latency=0.05))

    def test_remote_replica_read(self, grid):
        self._register(grid)
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/rep/fileA",
                mode=IOMode.REMOTE_REPLICA,
                logical_name="lfn://fileA",
            )
        )
        f = grid["fm_alpha"].open("/rep/fileA", "r")
        assert f.read() == b"beta-replica"
        f.close()

    def test_local_replica_preferred_when_present(self, grid):
        self._register(grid, data_alpha=b"alpha-replica")
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/rep/fileA",
                mode=IOMode.REMOTE_REPLICA,
                logical_name="lfn://fileA",
            )
        )
        f = grid["fm_alpha"].open("/rep/fileA", "r")
        assert f.read() == b"alpha-replica"
        f.close()

    def test_local_replica_mode_copies_in(self, grid):
        self._register(grid)
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/rep/fileA",
                mode=IOMode.LOCAL_REPLICA,
                logical_name="lfn://fileA",
                local_path="/cache/fileA",
            )
        )
        f = grid["fm_alpha"].open("/rep/fileA", "r")
        assert f.read() == b"beta-replica"
        f.close()
        assert grid["hosts"].host("alpha").resolve("/cache/fileA").exists()

    def test_replica_write_rejected(self, grid):
        self._register(grid)
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/rep/fileA",
                mode=IOMode.REMOTE_REPLICA,
                logical_name="lfn://fileA",
            )
        )
        with pytest.raises(FMError, match="read-only"):
            grid["fm_alpha"].open("/rep/fileA", "w")

    def test_missing_selector_raises(self, grid, gns, hosts):
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/rep/x",
                mode=IOMode.REMOTE_REPLICA,
                logical_name="lfn://x",
            )
        )
        fm = FileMultiplexer(GridContext(machine="alpha", gns=gns, hosts=hosts))
        with pytest.raises(FMError, match="ReplicaSelector"):
            fm.open("/rep/x", "r")


class TestBufferMode:
    def test_writer_reader_across_machines(self, grid):
        grid["ns"].add(
            GnsRecord(
                machine="*",
                path="/stream/live",
                mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream="live", cache=True),
            )
        )

        def produce():
            w = grid["fm_beta"].open("/stream/live", "w")
            for i in range(5):
                w.write(bytes([i]) * 100)
            w.close()

        t = threading.Thread(target=produce)
        t.start()
        r = grid["fm_alpha"].open("/stream/live", "r")
        assert r.io_mode is IOMode.BUFFER
        data = bytearray()
        while True:
            chunk = r.read(100)
            if not chunk:
                break
            data.extend(chunk)
        assert len(data) == 500
        r.seek(0)
        assert r.read(100) == b"\x00" * 100  # cache re-read
        r.close()
        t.join(timeout=10)

    def test_bidirectional_mode_rejected(self, grid):
        grid["ns"].add(
            GnsRecord(
                machine="*",
                path="/stream/x",
                mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream="x"),
            )
        )
        with pytest.raises(FMError, match="unidirectional"):
            grid["fm_alpha"].open("/stream/x", "r+")


class TestStatsAndDispatch:
    def test_open_stats_recorded(self, grid):
        fm = grid["fm_alpha"]
        f = fm.open("/stats.bin", "w")
        f.write(b"12345")
        f.close()
        f = fm.open("/stats.bin", "r")
        f.read(3)
        f.seek(0)
        f.read(2)
        f.close()
        write_stats = fm.open_history[-2]
        read_stats = fm.open_history[-1]
        assert write_stats.bytes_written == 5
        assert read_stats.bytes_read == 5
        assert read_stats.seeks == 1
        assert read_stats.io_mode == "local"

    def test_each_open_independent_choice(self, grid):
        """Section 3.1: 'one file may be local and another remote'."""
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/mix/remote.bin",
                mode=IOMode.REMOTE,
                remote_host="beta",
                remote_path="/exports/data.bin",
            )
        )
        fm = grid["fm_alpha"]
        local = fm.open("/mix/local.bin", "w")
        remote = fm.open("/mix/remote.bin", "r")
        assert local.io_mode is IOMode.LOCAL
        assert remote.io_mode is IOMode.REMOTE
        local.close()
        remote.close()

    def test_missing_gridftp_locator_raises(self, grid, gns, hosts):
        grid["ns"].add(
            GnsRecord(
                machine="alpha",
                path="/r/x",
                mode=IOMode.REMOTE,
                remote_host="beta",
                remote_path="/x",
            )
        )
        fm = FileMultiplexer(GridContext(machine="alpha", gns=gns, hosts=hosts))
        with pytest.raises(FMError, match="no GridFTP locator"):
            fm.open("/r/x", "r")


class TestTeardownSpan:
    def test_close_emits_fm_close_span(self, gns, hosts):
        from repro import obs

        sink = obs.MemorySink()
        prior = obs.configure(sink)
        try:
            FileMultiplexer(GridContext(machine="alpha", gns=gns, hosts=hosts)).close()
        finally:
            obs.configure(prior)
        [span] = sink.spans("fm.close")
        assert span["attrs"]["machine"] == "alpha"

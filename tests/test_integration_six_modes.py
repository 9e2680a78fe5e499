"""One workflow exercising ALL SIX IO modes (paper Section 2's list),
plus dynamic re-mapping — the full-system integration test."""

import threading

import pytest

from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.replica import ReplicaSelector
from repro.gns.client import LocalGnsClient
from repro.gns.records import BufferEndpoint, GnsRecord, IOMode
from repro.gns.server import NameService
from repro.grid.nws import Measurement, NetworkWeatherService
from repro.grid.replica_catalog import Replica, ReplicaCatalog
from repro.gridbuffer.server import GridBufferServer
from repro.transport.gridftp import GridFtpServer
from repro.transport.inmem import HostRegistry


@pytest.fixture()
def world(tmp_path):
    """Three virtual hosts, all servers, replicas, NWS data."""
    hosts = HostRegistry(tmp_path / "hosts")
    for name in ("compute", "store1", "store2"):
        hosts.add_host(name)

    # Seed data: a remote input on store1, a replicated dataset on both
    # store hosts.
    hosts.host("store1").resolve("/in/source.dat").parent.mkdir(parents=True, exist_ok=True)
    hosts.host("store1").resolve("/in/source.dat").write_bytes(b"S" * 4096)
    for host, tag in (("store1", b"1"), ("store2", b"2")):
        p = hosts.host(host).resolve("/replicas/big.dat")
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(tag * 2048)

    servers = {
        name: GridFtpServer(hosts.host(name).root).start()
        for name in ("compute", "store1", "store2")
    }
    buffer_server = GridBufferServer(cache_dir=tmp_path / "cache").start()

    catalog = ReplicaCatalog()
    catalog.register("lfn://big", Replica("store1", "/replicas/big.dat", size=2048))
    catalog.register("lfn://big", Replica("store2", "/replicas/big.dat", size=2048))
    nws = NetworkWeatherService()
    for i in range(4):
        nws.record("store1", "compute", Measurement(time=i, bandwidth=8e6, latency=0.01))
        nws.record("store2", "compute", Measurement(time=i, bandwidth=1e6, latency=0.2))

    ns = NameService(locate_buffer_server=lambda m: buffer_server.address)
    gns = LocalGnsClient(ns)
    ns.add_all(
        [
            GnsRecord(
                machine="compute", path="/job/remote-in.dat", mode=IOMode.REMOTE,
                remote_host="store1", remote_path="/in/source.dat",
            ),
            GnsRecord(
                machine="compute", path="/job/copied-in.dat", mode=IOMode.COPY,
                remote_host="store1", remote_path="/in/source.dat",
            ),
            GnsRecord(
                machine="compute", path="/job/replica-remote.dat",
                mode=IOMode.REMOTE_REPLICA, logical_name="lfn://big",
            ),
            GnsRecord(
                machine="compute", path="/job/replica-local.dat",
                mode=IOMode.LOCAL_REPLICA, logical_name="lfn://big",
                local_path="/cache/big.dat",
            ),
            GnsRecord(
                machine="*", path="/job/stream.dat", mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream="six-modes", cache=True),
            ),
        ]
    )

    selector = ReplicaSelector(catalog, nws)

    def ctx(machine):
        return GridContext(
            machine=machine,
            gns=gns,
            hosts=hosts,
            gridftp={name: s.address for name, s in servers.items()},
            buffer_locator=lambda m: buffer_server.address,
            selector=selector,
            scratch_dir=tmp_path / "scratch",
        )

    fms = {name: FileMultiplexer(ctx(name)) for name in ("compute", "store2")}
    yield {"fms": fms, "hosts": hosts, "nws": nws, "ns": ns}
    for fm in fms.values():
        fm.close()
    for s in servers.values():
        s.stop()
    buffer_server.stop()


class TestAllSixModes:
    def test_full_workflow(self, world):
        fm = world["fms"]["compute"]
        fm_remote = world["fms"]["store2"]
        modes_used = []

        # 1. LOCAL: write a scratch file.
        f = fm.open("/job/local-scratch.dat", "w")
        modes_used.append(f.io_mode)
        f.write(b"L" * 100)
        f.close()

        # 2. COPY: read a file copied in from store1.
        f = fm.open("/job/copied-in.dat", "r")
        modes_used.append(f.io_mode)
        assert f.read() == b"S" * 4096
        f.close()

        # 3. REMOTE: proxy-read the same source without copying.
        f = fm.open("/job/remote-in.dat", "r")
        modes_used.append(f.io_mode)
        assert f.read(16) == b"S" * 16
        f.close()

        # 4. REMOTE_REPLICA: NWS prefers store1 (8 MB/s vs 1 MB/s).
        f = fm.open("/job/replica-remote.dat", "r")
        modes_used.append(f.io_mode)
        assert f.read(8) == b"1" * 8
        f.close()

        # 5. LOCAL_REPLICA: pick best replica, copy it locally.
        f = fm.open("/job/replica-local.dat", "r")
        modes_used.append(f.io_mode)
        assert f.read(8) == b"1" * 8
        f.close()
        assert world["hosts"].host("compute").resolve("/cache/big.dat").exists()

        # 6. BUFFER: stream from store2's writer to compute's reader.
        def produce():
            w = fm_remote.open("/job/stream.dat", "w")
            w.write(b"stream-payload")
            w.close()

        t = threading.Thread(target=produce)
        t.start()
        r = fm.open("/job/stream.dat", "r")
        modes_used.append(r.io_mode)
        assert r.read(14) == b"stream-payload"
        r.close()
        t.join(timeout=10)

        assert set(modes_used) == set(IOMode), "all six IO modes must be exercised"

    def test_dynamic_remap_mid_read(self, world):
        """Read-only replicated open re-maps to a better replica when
        the NWS forecast flips (Section 3.1)."""
        fm = world["fms"]["compute"]
        f = fm.open("/job/replica-remote.dat", "r")
        first = f.read(4)
        assert first == b"1" * 4  # started on store1
        # store1 collapses; store2 becomes much better.
        for i in range(10, 26):
            world["nws"].record(
                "store1", "compute", Measurement(time=i, bandwidth=1e4, latency=0.9)
            )
            world["nws"].record(
                "store2", "compute", Measurement(time=i, bandwidth=9e6, latency=0.005)
            )
        # The remap hook fires every `remap_every` reads.
        data = b""
        for _ in range(130):
            chunk = f.read(4)
            if not chunk:
                break
            data += chunk
        f.close()
        assert f.stats.remaps >= 1
        assert b"2" in data  # later bytes came from store2's replica

    def test_rewiring_without_code_change(self, world):
        """The same reader function works when the GNS re-points its
        file from LOCAL to REMOTE — configuration only."""
        fm = world["fms"]["compute"]

        def legacy_reader():
            f = fm.open("/job/flex.dat", "r")
            try:
                return f.read()
            finally:
                f.close()

        host = world["hosts"].host("compute")
        host.resolve("/job/flex.dat").parent.mkdir(parents=True, exist_ok=True)
        host.resolve("/job/flex.dat").write_bytes(b"local version")
        assert legacy_reader() == b"local version"

        world["ns"].add(
            GnsRecord(
                machine="compute", path="/job/flex.dat", mode=IOMode.REMOTE,
                remote_host="store1", remote_path="/in/source.dat",
            )
        )
        assert legacy_reader() == b"S" * 4096


class TestObservabilityCoverage:
    """One registry snapshot must carry non-zero series from every
    instrumented layer: FM, transport, gridbuffer, workflow runner."""

    LAYERS = {
        "fm": ("fm_opens_total", "fm_ops_total", "fm_bytes_total"),
        "transport": (
            "gridftp_rpc_seconds",
            "gridftp_rpc_bytes_total",
            "rpc_client_calls_total",
        ),
        "gridbuffer": ("buffer_bytes_written_total", "buffer_blocks_stored_total"),
        "workflow": ("workflow_tasks_total", "workflow_task_seconds"),
    }

    @staticmethod
    def _series_total(family):
        total = 0.0
        for series in family["series"]:
            value = series["value"]
            total += value["count"] if isinstance(value, dict) else value
        return total

    def test_snapshot_covers_all_layers(self, world):
        from repro import obs
        from repro.workflow.runner import RealRunner
        from repro.workflow.scheduler import plan_workflow
        from repro.workflow.spec import FileUse, Stage, Workflow

        fm = world["fms"]["compute"]

        # FM + transport: proxy-read a remote file over GridFTP.
        f = fm.open("/job/remote-in.dat", "r")
        assert f.read() == b"S" * 4096
        f.close()

        # GridBuffer: stream a payload from store2's writer.
        def produce():
            w = world["fms"]["store2"].open("/job/stream.dat", "w")
            w.write(b"obs-payload")
            w.close()

        t = threading.Thread(target=produce)
        t.start()
        r = fm.open("/job/stream.dat", "r")
        assert r.read(11) == b"obs-payload"
        r.close()
        t.join(timeout=10)

        # Workflow runner: a real two-stage buffer-coupled run.
        def producer(io):
            with io.open("data.txt", "w") as fh:
                fh.write("x" * 512)

        def consumer(io):
            with io.open("data.txt", "r") as fh:
                assert len(fh.read()) == 512

        wf = Workflow(
            "obs-cov",
            [
                Stage("produce", writes=(FileUse("data.txt"),), func=producer),
                Stage("consume", reads=(FileUse("data.txt"),), func=consumer),
            ],
        )
        plan = plan_workflow(
            wf, {"produce": "m1", "consume": "m2"}, coupling={"data.txt": "buffer"}
        )
        runner = RealRunner(plan)
        result = runner.run()
        assert result.ok, result.errors
        runner.deployment.stop()

        snap = obs.snapshot()
        for layer, names in self.LAYERS.items():
            for name in names:
                family = snap.get(name)
                assert family and family["series"], f"{layer}: no series for {name}"
                assert self._series_total(family) > 0, f"{layer}: {name} is all zero"

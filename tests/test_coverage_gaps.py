"""Secondary coverage: smaller behaviours not hit by the main suites."""

import socket
import struct

import pytest

from repro.sim.engine import Environment
from repro.transport.tcp import FrameError, _Conn, _conn_recv_frame
from repro.transport.wire import FLAG_CRC, MAGIC, PREAMBLE, WIRE_VERSION


class TestTcpLimits:
    def test_oversized_header_rejected(self):
        a, b = socket.socketpair()
        b.settimeout(5.0)
        try:
            # 64 MiB field-table claim
            a.sendall(PREAMBLE.pack(MAGIC, WIRE_VERSION, FLAG_CRC, 0, 64 * 1024 * 1024, 0))
            with pytest.raises(FrameError, match="exceeds maximum"):
                _conn_recv_frame(_Conn(b))
        finally:
            a.close()
            b.close()


class TestBufferCacheLifecycle:
    def test_drop_stream_closes_cache(self, tmp_path):
        from repro.gridbuffer.cache import BufferCache
        from repro.gridbuffer.service import GridBufferService

        cache = BufferCache(tmp_path / "c.cache")
        svc = GridBufferService()
        svc.create_stream("s", cache=cache)
        svc.register_reader("s", "r")
        svc.write("s", 0, b"payload")
        svc.drop_stream("s")
        # Cache file remains on disk (close without delete) but the
        # stream is gone.
        assert not svc.exists("s")
        assert (tmp_path / "c.cache").exists()


class TestPolicyKnobs:
    def test_setup_rtts_scales_copy_cost(self):
        from repro.core.policy import AccessEstimate, AccessPolicy

        est = AccessEstimate(file_size=1024, bandwidth=1e6, latency=0.1)
        cheap_setup = AccessPolicy(copy_setup_rtts=1.0).copy_cost(est)
        pricey_setup = AccessPolicy(copy_setup_rtts=5.0).copy_cost(est)
        assert pricey_setup > cheap_setup
        assert pricey_setup - cheap_setup == pytest.approx(4 * 0.2)


class TestForecasterInternals:
    def test_ewma_pathway_selectable(self):
        """A trending series should prefer a recency-weighted predictor
        (last or ewma) over the long-run mean."""
        from repro.grid.nws import Forecaster

        f = Forecaster()
        for v in [1, 2, 4, 8, 16, 32, 64, 128]:
            f.observe(float(v))
        value, method = f.forecast()
        assert method in ("last", "ewma")
        assert value > 32


class TestFmFileRemapContinuity:
    def test_remap_preserves_position(self, tmp_path):
        """After a re-map the handle continues at the same byte offset."""
        import io

        from repro.core.multiplexer import FMFile, OpenStats
        from repro.gns.records import GnsRecord, IOMode

        record = GnsRecord(machine="m", path="/f", mode=IOMode.LOCAL)
        first = io.BytesIO(b"A" * 100)
        second = io.BytesIO(b"B" * 100)
        calls = {"n": 0}

        # The hook is consulted every `remap_every` reads (including
        # before the very first); switch on its SECOND consultation so
        # some bytes are read from the original source first.
        def hook(_fmfile):
            calls["n"] += 1
            return second if calls["n"] == 2 else None

        f = FMFile(first, record, OpenStats(), remap_hook=hook, remap_every=2)
        out = b"".join(f.read(10) for _ in range(4))
        # Reads 1-2 come from A; the switch happens at offset 20 and the
        # replacement is seeked there, so B bytes continue seamlessly.
        assert out[:20] == b"A" * 20
        assert out[20:] == b"B" * 20
        assert second.tell() == 40  # continued from position 20, read 20 more
        assert f.stats.remaps == 1


class TestStoreScale:
    def test_many_items_fifo(self):
        from repro.sim.resources import Store

        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for i in range(500):
                yield store.put(i)

        def consumer(env):
            for _ in range(500):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == list(range(500))


class TestWorkflowBuildFuncs:
    def test_build_wires_funcs(self):
        from repro.workflow.localio import run_workflow_in_memory
        from repro.workflow.spec import Workflow

        def write_it(io):
            with io.open("out", "w") as fh:
                fh.write("built")

        wf = Workflow.build("b", [{"name": "s", "writes": ["out"], "func": write_it}])
        files = run_workflow_in_memory(wf)
        assert files["out"] == b"built"


class TestTranslatingReaderEdge:
    def test_read_zero_bytes(self):
        import io as _io

        from repro.core.heterogeneity import FieldType, RecordSchema
        from repro.core.translating import TranslatingReader

        schema = RecordSchema([FieldType("x", "int32")])
        r = TranslatingReader(_io.BytesIO(struct.pack(">i", 5)), schema, "big")
        assert r.read(0) == b""
        assert r.read(4) == struct.pack("=i", 5)

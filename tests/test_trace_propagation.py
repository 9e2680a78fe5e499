"""Trace context crossing the RPC wire (ARCHITECTURE.md §12).

Every client call injects ``_trace``; the server pops it before the
handler runs and parents its ``rpc.server`` span under the remote
caller — for all three async-engine handler kinds.  A frame that
carries no trace context starts a fresh root on the server.
"""

import socket
import threading

import pytest

from repro import obs
from repro.transport.tcp import RpcClient, RpcServer, _Conn, _conn_recv_frame, _conn_send_frame
from repro.transport.wire import TRACE_KEY


@pytest.fixture()
def sink():
    s = obs.MemorySink()
    prior = obs.configure(s)
    yield s
    obs.configure(prior)


def _one(spans, **attrs):
    found = [
        s for s in spans
        if all((s.get("attrs") or {}).get(k) == v for k, v in attrs.items())
    ]
    assert len(found) == 1, f"want exactly one span with {attrs}, got {len(found)}"
    return found[0]


@pytest.fixture()
def server():
    seen_headers = {}

    def threaded(header, payload):
        seen_headers["t.thread"] = sorted(header)
        with obs.span("handler.work", op="t.thread"):
            return {"kind": "thread"}, payload

    def inline(header, payload):
        seen_headers["t.inline"] = sorted(header)
        with obs.span("handler.work", op="t.inline"):
            return {"kind": "inline"}, payload

    async def native(header, payload):
        seen_headers["t.async"] = sorted(header)
        return {"kind": "async"}, payload

    with RpcServer() as srv:
        srv.register("t.thread", threaded)
        srv.register("t.inline", inline, inline=True)
        srv.register_async("t.async", native)
        srv.seen_headers = seen_headers
        yield srv


class TestHandlerKinds:
    @pytest.mark.parametrize("op", ["t.thread", "t.inline", "t.async"])
    def test_server_span_parents_under_remote_caller(self, sink, server, op):
        host, port = server.address
        client = RpcClient(host, port)
        try:
            with obs.span("root", test=op):
                reply, _ = client.call(op, {"n": 1}, b"x")
            assert reply["ok"]
        finally:
            client.close()

        spans = sink.spans()
        root = _one(spans, test=op)
        rpc_client = _one([s for s in spans if s["name"] == "rpc.client"], op=op)
        rpc_server = _one([s for s in spans if s["name"] == "rpc.server"], op=op)
        assert rpc_client["parent"] == root["span"]
        assert rpc_server["parent"] == rpc_client["span"]
        # One trace end to end, and the remote span really is remote-shaped.
        assert rpc_server["trace"] == root["trace"]
        assert rpc_server["attrs"]["kind"] == op.split(".")[1][:6]

    @pytest.mark.parametrize("op", ["t.thread", "t.inline"])
    def test_handler_spans_parent_under_server_span(self, sink, server, op):
        """Sync handlers get the context re-attached on their own thread,
        so spans the handler body opens nest under ``rpc.server``."""
        host, port = server.address
        client = RpcClient(host, port)
        try:
            with obs.span("root"):
                client.call(op)
        finally:
            client.close()
        spans = sink.spans()
        rpc_server = _one([s for s in spans if s["name"] == "rpc.server"], op=op)
        work = _one([s for s in spans if s["name"] == "handler.work"], op=op)
        assert work["parent"] == rpc_server["span"]
        assert work["trace"] == rpc_server["trace"]

    @pytest.mark.parametrize("op", ["t.thread", "t.inline", "t.async"])
    def test_handlers_never_see_the_trace_key(self, sink, server, op):
        host, port = server.address
        client = RpcClient(host, port)
        try:
            with obs.span("root"):
                client.call(op, {"n": 1})
        finally:
            client.close()
        assert TRACE_KEY not in server.seen_headers[op]

    def test_concurrent_pipelined_calls_keep_parents_straight(self, sink, server):
        """Many in-flight calls over pooled connections: each rpc.server
        span must still parent under ITS caller, not a sibling's."""
        host, port = server.address
        client = RpcClient(host, port)
        try:
            with obs.span("root"):
                ctx = obs.current_context()
                errors = []

                def worker(i):
                    with obs.attach(ctx):
                        try:
                            reply, _ = client.call("t.async", {"i": i})
                            assert reply["ok"]
                        except Exception as exc:  # noqa: BLE001 - surfaced below
                            errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(i,)) for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            assert not errors
        finally:
            client.close()
        spans = sink.spans()
        clients = {s["span"]: s for s in spans if s["name"] == "rpc.client"}
        servers = [s for s in spans if s["name"] == "rpc.server"]
        assert len(clients) == 8 and len(servers) == 8
        for s in servers:
            caller = clients[s["parent"]]  # KeyError = mis-parented
            assert s["trace"] == caller["trace"]
            # The server interval sits inside its caller's (same clock
            # domain here — one process), which is what the multi-file
            # merge's offset estimator relies on.
            assert caller["start"] <= s["start"] and s["end"] <= caller["end"]


class TestUntracedFrames:
    def test_frame_without_trace_key_starts_fresh_root(self, sink, server):
        """A raw frame with no ``_trace`` key: the server span must
        appear as a trace root, not crash or mis-parent."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            conn = _Conn(sock)
            _conn_send_frame(conn, {"op": "t.inline"}, b"raw")
            reply, payload = _conn_recv_frame(conn)
        assert reply["ok"] and payload == b"raw"
        rpc_server = _one(
            [s for s in sink.spans() if s["name"] == "rpc.server"], op="t.inline"
        )
        assert rpc_server["parent"] is None


class TestProcStamp:
    def test_span_records_carry_proc_label(self, sink, server):
        host, port = server.address
        client = RpcClient(host, port)
        try:
            with obs.span("root"):
                client.call("t.inline")
        finally:
            client.close()
        tracer = obs.get_tracer()
        for span in sink.spans():
            assert span["proc"] == tracer.proc

"""Unit + property tests for the framed TCP RPC layer.

Every client and server speaks one wire format — the binary frame with
its CRC trailer, from the first frame of every connection — so the RPC
suite runs one pairing, ``binary-binary``: the pooled sync client
against the async server.  ``TestOneWire`` pins that contract down at
the byte level.
"""

import asyncio
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.aio import AsyncRpcClient
from repro.transport.tcp import (
    MAX_HEADER,
    FrameError,
    RpcClient,
    RpcError,
    RpcServer,
    _Conn,
    _conn_recv_frame,
    _conn_send_frame,
)
from repro.transport.wire import (
    FLAG_CRC,
    MAGIC,
    PREAMBLE,
    PREAMBLE_SIZE,
    WIRE_VERSION,
    WireError,
    build_binary_frame,
    decode_binary_header,
    decode_fields,
)


def _make_server(host: str = "127.0.0.1", port: int = 0):
    server = RpcServer(host, port)
    server.register("echo", lambda header, payload: ({"echo": header.get("msg")}, payload))

    def boom(header, payload):
        raise ValueError("deliberate")

    server.register("boom", boom)

    def typed_error(header, payload):
        raise RpcError("custom-kind", "custom message")

    server.register("typed", typed_error)
    return server


@pytest.fixture(params=[pytest.param("binary-binary", id="binary-binary")])
def echo_server(request):
    with _make_server() as server:
        yield server


@pytest.fixture()
def echo_client(echo_server):
    client = RpcClient(*echo_server.address)
    yield client
    client.close()


def _send(sock, header, payload=b""):
    _conn_send_frame(_Conn(sock), header, payload)


def _recv(sock):
    return _conn_recv_frame(_Conn(sock))


def _preamble(fields_len, payload_len=0, flags=FLAG_CRC, magic=MAGIC):
    return PREAMBLE.pack(magic, WIRE_VERSION, flags, 0, fields_len, payload_len)


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            _send(a, {"op": "x", "n": 3}, b"payload")
            header, payload = _recv(b)
            assert header["op"] == "x"
            assert header["n"] == 3
            assert payload == b"payload"
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = socket.socketpair()
        try:
            _send(a, {"op": "x"})
            header, payload = _recv(b)
            assert payload == b""
            assert header["payload_len"] == 0
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        a.sendall(_preamble(fields_len=16) + b"partial")
        a.close()
        with pytest.raises(FrameError):
            _recv(b)
        b.close()

    def test_garbage_header_raises(self):
        a, b = socket.socketpair()
        bad = b"not a table"
        a.sendall(_preamble(fields_len=len(bad)) + bad + b"\x00\x00\x00\x00")
        a.close()
        with pytest.raises(FrameError, match="bad frame header"):
            _recv(b)
        b.close()

    @given(
        msg=st.text(max_size=200),
        payload=st.binary(max_size=5000),
        extra=st.integers(min_value=-(2**31), max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_header_payload_roundtrips(self, msg, payload, extra):
        a, b = socket.socketpair()
        try:
            _send(a, {"op": "t", "msg": msg, "extra": extra}, payload)
            header, got = _recv(b)
            assert header["msg"] == msg
            assert header["extra"] == extra
            assert got == payload
        finally:
            a.close()
            b.close()


class TestRpc:
    def test_echo(self, echo_client):
        reply, payload = echo_client.call("echo", {"msg": "hi"}, b"data")
        assert reply["echo"] == "hi"
        assert payload == b"data"

    def test_unknown_op_is_rpc_error(self, echo_client):
        with pytest.raises(RpcError, match="no handler"):
            echo_client.call("nope")

    def test_handler_exception_becomes_error_reply(self, echo_client):
        with pytest.raises(RpcError, match="deliberate"):
            echo_client.call("boom")
        # Connection survives the error.
        reply, _ = echo_client.call("echo", {"msg": "still-alive"})
        assert reply["echo"] == "still-alive"

    def test_typed_rpc_error_kind_preserved(self, echo_client):
        with pytest.raises(RpcError) as exc_info:
            echo_client.call("typed")
        assert exc_info.value.kind == "custom-kind"

    def test_concurrent_clients(self, echo_server):
        errors = []

        def worker(n):
            try:
                with RpcClient(*echo_server.address) as client:
                    for i in range(20):
                        reply, _ = client.call("echo", {"msg": f"{n}:{i}"})
                        assert reply["echo"] == f"{n}:{i}"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_large_payload(self, echo_client):
        blob = bytes(range(256)) * 4096  # 1 MiB
        _, got = echo_client.call("echo", {"msg": "big"}, blob)
        assert got == blob

    def test_client_is_thread_safe(self, echo_client):
        errors = []

        def worker(n):
            try:
                for i in range(10):
                    reply, _ = echo_client.call("echo", {"msg": f"{n}.{i}"})
                    assert reply["echo"] == f"{n}.{i}"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestFramingEdgeCases:
    def test_oversized_header_raises(self):
        """A field table past MAX_HEADER fails at the preamble, at once."""
        a, b = socket.socketpair()
        b.settimeout(5.0)  # a regression would park here instead of raising
        try:
            a.sendall(_preamble(fields_len=MAX_HEADER + 1))
            t0 = time.perf_counter()
            with pytest.raises(FrameError, match="exceeds maximum"):
                _recv(b)
            assert time.perf_counter() - t0 < 1.0
        finally:
            a.close()
            b.close()

    def test_json_style_frame_raises(self):
        a, b = socket.socketpair()
        try:
            raw = b'{"op": "x", "payload_len": 0}'
            a.sendall(len(raw).to_bytes(4, "big") + raw)
            with pytest.raises(FrameError, match="magic"):
                _recv(b)
        finally:
            a.close()
            b.close()

    def test_frame_without_crc_flag_raises(self):
        a, b = socket.socketpair()
        try:
            scratch = bytearray()
            build_binary_frame(scratch, {"op": "x"}, 0)
            scratch[2] = 0  # clear FLAG_CRC; no trailer follows
            a.sendall(scratch)
            with pytest.raises(FrameError, match="flags"):
                _recv(b)
        finally:
            a.close()
            b.close()

    def test_truncated_payload_raises(self):
        a, b = socket.socketpair()
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "x"}, 100)
        a.sendall(bytes(scratch) + b"only ten b")
        a.close()  # peer disconnects mid-payload
        with pytest.raises(FrameError, match="outstanding"):
            _recv(b)
        b.close()

    def test_bytes_like_payloads_accepted(self):
        a, b = socket.socketpair()
        try:
            _send(a, {"op": "x"}, memoryview(bytearray(b"view")))
            _, payload = _recv(b)
            assert payload == b"view"
        finally:
            a.close()
            b.close()


class TestPooledClient:
    @pytest.fixture()
    def slow_server(self):
        server = RpcServer()
        gate = threading.Event()

        def sleepy(header, payload):
            time.sleep(float(header.get("s", 0.1)))
            return {"done": True}, b""

        def blocked(header, payload):
            gate.wait(10.0)
            return {"done": True}, b""

        server.register("sleepy", sleepy)
        server.register("blocked", blocked)
        server.gate = gate
        with server:
            yield server

    def test_calls_overlap_across_pool(self, slow_server):
        """Four concurrent calls on one client take ~1 nap, not four."""
        client = RpcClient(*slow_server.address, max_connections=4)
        results = []

        def one():
            reply, _ = client.call("sleepy", {"s": 0.2})
            results.append(reply["done"])

        threads = [threading.Thread(target=one) for _ in range(4)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        client.close()
        assert results == [True] * 4
        assert elapsed < 0.6, f"calls serialised: {elapsed:.2f}s for 4x 0.2s naps"

    def test_pool_of_one_serialises(self, slow_server):
        """max_connections caps in-flight depth (strict request/reply)."""
        client = RpcClient(*slow_server.address, max_connections=1)
        threads = [
            threading.Thread(target=lambda: client.call("sleepy", {"s": 0.15}))
            for _ in range(2)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        client.close()
        assert elapsed >= 0.28, f"pool of 1 overlapped calls: {elapsed:.2f}s"

    def test_close_all_unblocks_inflight_call(self, slow_server):
        client = RpcClient(*slow_server.address, max_connections=2)
        failures = []

        def blocked_call():
            try:
                client.call("blocked")
            except (OSError, FrameError) as exc:
                failures.append(exc)

        t = threading.Thread(target=blocked_call)
        t.start()
        time.sleep(0.1)  # let the call get in flight
        t0 = time.perf_counter()
        client.close_all()
        t.join(timeout=5.0)
        assert not t.is_alive(), "in-flight call survived close_all()"
        assert time.perf_counter() - t0 < 2.0
        assert failures, "blocked call should fail fast, not return"
        slow_server.gate.set()

    def test_client_recovers_after_peer_disconnect_mid_frame(self):
        """A mid-reply disconnect poisons one socket, not the client."""
        ready = threading.Event()
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        addr = listener.getsockname()
        stop = False

        def serve():
            first = True
            ready.set()
            while not stop:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                try:
                    header, payload = _recv(conn)
                    if first:
                        first = False
                        # Half a frame, then hang up mid-payload.
                        scratch = bytearray()
                        build_binary_frame(scratch, {"ok": True}, 50)
                        conn.sendall(bytes(scratch) + b"short")
                        conn.close()
                        continue
                    _send(conn, {"ok": True, "echo": header.get("msg")})
                    conn.close()
                except (FrameError, OSError):
                    conn.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        ready.wait(5.0)
        client = RpcClient(*addr, max_connections=2)
        with pytest.raises((FrameError, OSError)):
            client.call("echo", {"msg": "doomed"})
        # The poisoned connection was discarded; a fresh one works.
        reply, _ = client.call("echo", {"msg": "recovered"})
        assert reply["echo"] == "recovered"
        client.close()
        stop = True
        listener.close()


# ---------------------------------------------------------------------------
# Binary wire codec
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=60),
    st.binary(max_size=60),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=4),
    st.dictionaries(st.text(max_size=10), _scalars, max_size=4),
)


def _binary_roundtrip(header, payload_len):
    scratch = bytearray()
    build_binary_frame(scratch, header, payload_len)
    magic, version, _flags, opid, fields_len, plen = PREAMBLE.unpack_from(scratch, 0)
    assert magic == MAGIC and version == WIRE_VERSION
    assert len(scratch) == PREAMBLE_SIZE + fields_len
    fields = memoryview(scratch)[PREAMBLE_SIZE:]
    return decode_binary_header(opid, fields, plen)


class TestBinaryCodec:
    @given(
        header=st.dictionaries(st.text(min_size=1, max_size=16), _values, max_size=12),
        payload_len=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_header_roundtrips(self, header, payload_len):
        header.pop("payload_len", None)
        header.pop("op", None)
        got = _binary_roundtrip(dict(header, op="gb.write"), payload_len)
        assert got.pop("op") == "gb.write"
        assert got.pop("payload_len") == payload_len
        assert got == header

    def test_unknown_op_travels_as_literal(self):
        got = _binary_roundtrip({"op": "custom.op", "x": 1}, 0)
        assert got["op"] == "custom.op"
        assert got["x"] == 1

    def test_known_op_compresses_to_preamble_id(self):
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "gb.read", "offset": 0}, 0)
        _, _, _, opid, _, _ = PREAMBLE.unpack_from(scratch, 0)
        assert opid != 0
        assert b"gb.read" not in bytes(scratch)

    @pytest.mark.parametrize("value", [2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1, -(2**64)])
    def test_ints_beyond_64_bits_roundtrip(self, value):
        assert _binary_roundtrip({"op": "gb.read", "offset": value}, 0)["offset"] == value

    def test_trailing_garbage_rejected(self):
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "gb.read", "offset": 1}, 0)
        with pytest.raises(WireError, match="trailing"):
            decode_fields(bytes(scratch[PREAMBLE_SIZE:]) + b"\x00")

    def test_unknown_op_id_rejected(self):
        with pytest.raises(WireError, match="unknown op id"):
            decode_binary_header(60000, b"\x00", 0)


# ---------------------------------------------------------------------------
# One wire: binary + CRC from the first frame, nothing else served
# ---------------------------------------------------------------------------


def _capture_first_frame(issue_call) -> bytes:
    """Bytes a fresh client writes first, read on a raw listening socket.

    ``issue_call(addr)`` makes one call against ``addr``; the listener
    hangs up after reading a preamble, so the call fails and returns.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)
    got = {}

    def serve():
        conn, _ = listener.accept()
        conn.settimeout(5.0)
        data = b""
        while len(data) < PREAMBLE_SIZE:
            chunk = conn.recv(4096)
            if not chunk:
                break
            data += chunk
        got["data"] = data
        conn.close()

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    try:
        issue_call(listener.getsockname())
    except (OSError, FrameError):
        pass
    t.join(5.0)
    listener.close()
    return got["data"]


def _assert_binary_crc(raw: bytes) -> None:
    magic, version, flags, _opid, _flen, _plen = PREAMBLE.unpack_from(raw, 0)
    assert magic == MAGIC
    assert version == WIRE_VERSION
    assert flags == FLAG_CRC


def _served_closed(server, raw: bytes) -> bytes:
    """Write ``raw`` on a fresh connection; return what the server sends."""
    with socket.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(raw)
        return sock.recv(4096)


class TestOneWire:
    def test_sync_client_first_frame_is_binary_with_crc(self):
        def call(addr):
            with RpcClient(*addr, timeout=5.0) as client:
                client.call("echo", {"msg": "hi"}, retryable=False)

        _assert_binary_crc(_capture_first_frame(call))

    def test_async_client_first_frame_is_binary_with_crc(self):
        def call(addr):
            async def go():
                client = AsyncRpcClient(*addr, timeout=5.0)
                try:
                    await client.call("echo", {"msg": "hi"}, retryable=False)
                finally:
                    await client.close()

            asyncio.run(go())

        _assert_binary_crc(_capture_first_frame(call))

    @pytest.fixture()
    def spied_server(self):
        server = RpcServer()
        server.served = []
        server.register("echo", lambda h, p: (server.served.append(h) or {}, p))
        with server:
            yield server

    def test_server_closes_on_json_style_frame(self, spied_server):
        raw = b'{"op":"echo","payload_len":0}'
        assert raw[:1] != bytes([MAGIC])
        assert _served_closed(spied_server, len(raw).to_bytes(4, "big") + raw) == b""
        assert spied_server.served == []

    def test_server_closes_on_frame_without_crc(self, spied_server):
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "echo"}, 4)
        scratch[2] = 0  # clear FLAG_CRC and send no trailer
        assert _served_closed(spied_server, bytes(scratch) + b"data") == b""
        assert spied_server.served == []

    def test_server_closes_on_oversized_field_table(self, spied_server):
        t0 = time.perf_counter()
        assert _served_closed(spied_server, _preamble(fields_len=MAX_HEADER + 1)) == b""
        assert time.perf_counter() - t0 < 1.0
        assert spied_server.served == []

    def test_sync_client_rejects_oversized_field_table(self):
        """A reply preamble claiming a huge table fails now, not at timeout."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        done = threading.Event()

        def serve():
            conn, _ = listener.accept()
            conn.recv(4096)
            conn.sendall(_preamble(fields_len=MAX_HEADER + 1))
            done.wait(10.0)  # hold the connection open
            conn.close()

        threading.Thread(target=serve, daemon=True).start()
        client = RpcClient(*listener.getsockname(), timeout=5.0)
        try:
            t0 = time.perf_counter()
            with pytest.raises(FrameError, match="exceeds maximum"):
                client.call("echo", retryable=False)
            assert time.perf_counter() - t0 < 1.0
        finally:
            done.set()
            client.close()
            listener.close()


# ---------------------------------------------------------------------------
# Async server handler kinds + async client
# ---------------------------------------------------------------------------


class TestAsyncServerHandlers:
    def test_inline_and_native_async_handlers(self):
        server = RpcServer()
        server.register("double", lambda h, p: ({"v": h["x"] * 2}, b""), inline=True)

        async def plus_one(header, payload):
            await asyncio.sleep(0)
            return {"v": header["x"] + 1}, payload

        server.register_async("plus1", plus_one)
        with server, RpcClient(*server.address) as client:
            assert client.call("double", {"x": 3})[0]["v"] == 6
            reply, data = client.call("plus1", {"x": 3}, b"p")
            assert reply["v"] == 4
            assert data == b"p"

    def test_restart_rebinds_same_port(self):
        server = _make_server().start()
        host, port = server.address
        try:
            server.stop()
            again = _make_server(host, port)
            with again, RpcClient(host, port) as client:
                assert client.call("echo", {"msg": "back"})[0]["echo"] == "back"
        finally:
            server.stop()

    def test_crash_leaves_no_connection_silent(self):
        """Connections racing stop() + disconnect_all() never hang.

        Every connection whose handshake completed is either answered
        or failed at once; none may sit accepted but unserved, which
        would park its client until the IO timeout across a restart.
        """
        silent = 0
        for _ in range(3):
            server = _make_server().start()
            socks, stop = [], threading.Event()

            def dial(addr=server.address):
                while not stop.is_set():
                    try:
                        socks.append(socket.create_connection(addr, timeout=1.0))
                    except OSError:
                        return

            dialers = [threading.Thread(target=dial) for _ in range(4)]
            for t in dialers:
                t.start()
            time.sleep(0.02)
            server.stop()
            server.disconnect_all()
            stop.set()
            for t in dialers:
                t.join()
            for sock in socks:
                try:
                    _send(sock, {"op": "echo", "msg": "x"})
                    _recv(sock)
                except socket.timeout:
                    silent += 1
                except (OSError, FrameError):
                    pass
                finally:
                    sock.close()
        assert silent == 0


class TestAsyncRpcClient:
    def test_echo(self):
        async def go(addr):
            client = AsyncRpcClient(*addr)
            try:
                reply, data = await client.call("echo", {"msg": "hi"}, b"abc")
                assert reply["echo"] == "hi"
                assert data == b"abc"
            finally:
                await client.close()

        with _make_server() as server:
            asyncio.run(go(server.address))

    def test_error_reply_raises(self):
        async def go(addr):
            client = AsyncRpcClient(*addr)
            try:
                with pytest.raises(RpcError) as exc_info:
                    await client.call("typed")
                assert exc_info.value.kind == "custom-kind"
            finally:
                await client.close()

        with _make_server() as server:
            asyncio.run(go(server.address))

    def test_many_concurrent_clients_one_loop(self):
        """64 clients multiplex on one caller loop, no thread each."""

        async def one(addr, i):
            client = AsyncRpcClient(*addr)
            try:
                reply, _ = await client.call("echo", {"msg": f"m{i}"})
                return reply["echo"]
            finally:
                await client.close()

        async def go(addr):
            return await asyncio.gather(*(one(addr, i) for i in range(64)))

        with _make_server() as server:
            results = asyncio.run(go(server.address))
        assert results == [f"m{i}" for i in range(64)]

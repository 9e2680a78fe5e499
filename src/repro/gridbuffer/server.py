"""TCP front end for the Grid Buffer service.

One :class:`GridBufferServer` hosts a :class:`GridBufferService` and
serves any number of streams on the async :class:`RpcServer`.  The
blocking ops (reads waiting for unwritten data, writes stalled on
capacity) are native coroutine handlers — a parked reader costs a
future on the stream, not a server thread, so one node multiplexes
thousands of concurrent readers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..transport.tcp import RpcError, RpcServer
from .cache import BufferCache
from .protocol import (
    DEFAULT_CAPACITY,
    OP_ABORT,
    OP_CLOSE_WRITER,
    OP_CONSUME_MULTI,
    OP_CREATE,
    OP_DROP,
    OP_EXISTS,
    OP_HIGH_WATER,
    OP_READ,
    OP_READ_MULTI,
    OP_REGISTER_READER,
    OP_RESUME,
    OP_STATS,
    OP_WRITE,
    OP_WRITE_MULTI,
)
from .service import GridBufferError, GridBufferService

__all__ = ["GridBufferServer"]


class GridBufferServer:
    """Network wrapper: maps RPC ops onto a local GridBufferService.

    ``simulated_latency`` (one-way seconds) is injected per RPC by the
    underlying :class:`RpcServer`, so benchmarks can A/B the per-block
    and vectored paths over a slow link without leaving localhost.
    """

    def __init__(
        self,
        cache_dir: Optional[Path] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        default_capacity: Optional[int] = DEFAULT_CAPACITY,
        simulated_latency: float = 0.0,
    ):
        self.service = GridBufferService(default_capacity=default_capacity)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._simulated_latency = simulated_latency
        self._rpc = self._new_rpc(host, port)
        self._register_ops(self._rpc)

    def _new_rpc(self, host: str, port: int) -> RpcServer:
        return RpcServer(host, port, simulated_latency=self._simulated_latency)

    def _register_ops(self, rpc: RpcServer) -> None:
        # Service-level detail for the ops plane's _obs.health op.
        rpc.health_info = self.health_info
        # gb.create and gb.drop run on a worker: they touch the cache
        # file on disk.
        rpc.register(OP_CREATE, self._op_create)
        rpc.register(OP_DROP, self._op_drop)
        # The potentially-blocking ops are coroutines: a reader waiting
        # for data (or a writer stalled on capacity) parks a future on
        # the stream instead of holding a thread.
        rpc.register_async(OP_WRITE, self._op_write_async)
        rpc.register_async(OP_WRITE_MULTI, self._op_write_multi_async)
        rpc.register_async(OP_READ, self._op_read_async)
        rpc.register_async(OP_READ_MULTI, self._op_read_multi_async)
        # Everything left never blocks (lock-protected dict/interval
        # work, no waiting, no file IO) — run it inline on the loop and
        # skip the two thread hops of the executor path.
        for op, fn in (
            (OP_REGISTER_READER, self._op_register_reader),
            (OP_CONSUME_MULTI, self._op_consume_multi),
            (OP_CLOSE_WRITER, self._op_close_writer),
            (OP_STATS, self._op_stats),
            (OP_EXISTS, self._op_exists),
            (OP_ABORT, self._op_abort),
            (OP_RESUME, self._op_resume),
            (OP_HIGH_WATER, self._op_high_water),
        ):
            rpc.register(op, fn, inline=True)

    @property
    def address(self) -> Tuple[str, int]:
        return self._rpc.address

    def health_info(self) -> Dict[str, Any]:
        """Buffer-service summary served by ``_obs.health``."""
        names = self.service.stream_names()
        return {
            "kind": "gridbuffer",
            "streams": len(names),
            "stream_names": names[:32],
        }

    def start(self) -> "GridBufferServer":
        self._rpc.start()
        return self

    def stop(self) -> None:
        self._rpc.stop()

    def restart(self) -> None:
        """Bounce the TCP front end on the same port; stream state survives.

        Every live connection dies (in-flight calls fail with a
        connection error) but the :class:`GridBufferService` and all its
        streams persist — this models a service blip, the scenario the
        client recovery layer (redial + re-register + dedupe tokens) is
        built for, and is what the chaos suite exercises.
        """
        host, port = self.address
        self._rpc.stop()
        self._rpc.disconnect_all()
        self._rpc = self._new_rpc(host, port)
        self._register_ops(self._rpc)
        self._rpc.start()

    def __enter__(self) -> "GridBufferServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- handlers -----------------------------------------------------------
    @staticmethod
    def _wrap(fn):
        try:
            return fn()
        except GridBufferError as exc:
            raise RpcError("grid-buffer", str(exc)) from exc
        except TimeoutError as exc:
            raise RpcError("timeout", str(exc)) from exc

    @staticmethod
    async def _awrap(coro):
        try:
            return await coro
        except GridBufferError as exc:
            raise RpcError("grid-buffer", str(exc)) from exc
        except TimeoutError as exc:
            raise RpcError("timeout", str(exc)) from exc

    def _op_create(self, header: Dict[str, Any], _payload: bytes):
        name = header["name"]
        cache = None
        if header.get("cache", False):
            if self.cache_dir is None:
                raise RpcError("no-cache-dir", "server started without cache_dir")
            safe = name.replace("/", "_").replace(":", "_")
            cache = BufferCache(self.cache_dir / f"{safe}.cache")
        self._wrap(
            lambda: self.service.create_stream(
                name,
                n_readers=int(header.get("n_readers", 1)),
                capacity_bytes=header.get("capacity_bytes"),
                cache=cache,
            )
        )
        return {}, b""

    def _op_register_reader(self, header: Dict[str, Any], _payload: bytes):
        gen = self._wrap(
            lambda: self.service.register_reader(header["name"], header["reader_id"])
        )
        # Clients key their shared block cache on the generation.
        return {"gen": gen}, b""

    async def _op_write_async(self, header: Dict[str, Any], payload: bytes):
        stall = await self._awrap(
            self.service.write_async(
                header["name"],
                int(header["offset"]),
                payload,
                timeout=header.get("timeout"),
                token=header.get("token"),
                seq=header.get("seq"),
            )
        )
        reply: Dict[str, Any] = {"written": len(payload)}
        if stall is not None:
            reply["stall"] = stall
        return reply, b""

    async def _op_write_multi_async(self, header: Dict[str, Any], payload: bytes):
        offsets = [int(o) for o in header["offsets"]]
        sizes = [int(s) for s in header["sizes"]]
        if len(offsets) != len(sizes):
            raise RpcError("bad-request", "offsets/sizes length mismatch")
        if sum(sizes) != len(payload):
            raise RpcError("bad-request", "payload length does not match sizes")
        view = memoryview(payload)
        runs = []
        pos = 0
        for offset, size in zip(offsets, sizes):
            runs.append((offset, bytes(view[pos : pos + size])))
            pos += size
        written, stall = await self._awrap(
            self.service.write_multi_async(
                header["name"],
                runs,
                timeout=header.get("timeout"),
                token=header.get("token"),
                seq=header.get("seq"),
            )
        )
        reply: Dict[str, Any] = {"written": written}
        if stall is not None:
            reply["stall"] = stall
        return reply, b""

    async def _op_read_async(self, header: Dict[str, Any], _payload: bytes):
        data = await self._awrap(
            self.service.read_async(
                header["name"],
                header["reader_id"],
                int(header["offset"]),
                int(header["length"]),
                timeout=header.get("timeout"),
            )
        )
        return {"eof": len(data) == 0}, data

    async def _op_read_multi_async(self, header: Dict[str, Any], _payload: bytes):
        name = header["name"]
        data = await self._awrap(
            self.service.read_async(
                name,
                header["reader_id"],
                int(header["offset"]),
                int(header.get("budget", header.get("length", 0))),
                timeout=header.get("timeout"),
                min_bytes=int(header.get("min_bytes", 1)),
            )
        )
        total = self.service.total_bytes(name)
        return {"eof": len(data) == 0, "total": total}, data

    def _op_consume_multi(self, header: Dict[str, Any], _payload: bytes):
        entries = [
            (reader_id, [(int(s), int(e)) for s, e in ranges])
            for reader_id, ranges in header.get("entries", [])
        ]
        self._wrap(lambda: self.service.mark_consumed_multi(header["name"], entries))
        return {}, b""

    def _op_close_writer(self, header: Dict[str, Any], _payload: bytes):
        total = self._wrap(lambda: self.service.close_writer(header["name"]))
        return {"total": total}, b""

    def _op_stats(self, header: Dict[str, Any], _payload: bytes):
        stats = self._wrap(lambda: self.service.stats(header["name"]))
        return {"stats": vars(stats)}, b""

    def _op_drop(self, header: Dict[str, Any], _payload: bytes):
        self.service.drop_stream(header["name"])
        return {}, b""

    def _op_exists(self, header: Dict[str, Any], _payload: bytes):
        return {"exists": self.service.exists(header["name"])}, b""

    def _op_abort(self, header: Dict[str, Any], _payload: bytes):
        self._wrap(
            lambda: self.service.abort_writer(
                header["name"], header.get("reason", "writer aborted")
            )
        )
        return {}, b""

    def _op_resume(self, header: Dict[str, Any], _payload: bytes):
        offset = self._wrap(lambda: self.service.resume_writer(header["name"]))
        return {"offset": offset}, b""

    def _op_high_water(self, header: Dict[str, Any], _payload: bytes):
        offset = self._wrap(lambda: self.service.high_water(header["name"]))
        return {"offset": offset}, b""

"""Grid Buffer Client: the FM-facing face of direct connections.

"The Grid Buffer Client is responsible for implementing inter-process
communication.  It connects to a corresponding Grid Buffer Server on
the other host, and sends blocks of data for each local WRITE call."
(Section 4)

The FM asks the GNS matcher where the stream's buffer server lives
(reader-end or writer-end placement), then opens a writer or reader
adapter on it.  Connections to each distinct server are pooled per
client instance.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..gridbuffer.client import BufferReader, BufferWriter, GridBufferClient
from ..gns.records import BufferEndpoint

__all__ = ["GridBufferClientPool"]

#: Writer batch size: WRITE calls coalesce into vectored RPCs this big.
COALESCE_BYTES = 64 * 1024
#: Windowed read RPCs kept in flight per reader.
READ_AHEAD_DEPTH = 4


class GridBufferClientPool:
    """Pool of :class:`GridBufferClient` keyed by server address."""

    def __init__(
        self,
        machine: str,
        default_timeout: float = 120.0,
        monitor: Optional[object] = None,
    ):
        self.machine = machine
        self.default_timeout = default_timeout
        self.monitor = monitor
        self._clients: Dict[Tuple[str, int], GridBufferClient] = {}
        self._lock = threading.Lock()

    def client_for(self, host: str, port: int) -> GridBufferClient:
        key = (host, port)
        with self._lock:
            client = self._clients.get(key)
            if client is None:
                client = GridBufferClient(
                    host,
                    port,
                    timeout=self.default_timeout,
                    monitor=self.monitor,
                    peer=host,
                )
                self._clients[key] = client
            return client

    def open_writer(
        self,
        endpoint: BufferEndpoint,
        server: Tuple[str, int],
        write_timeout: Optional[float] = None,
    ) -> BufferWriter:
        """Writer batching WRITE calls into 64 KiB vectored RPCs, each
        batch pushed within the default 20 ms flush deadline."""
        client = self.client_for(*server)
        return client.open_writer(
            endpoint.stream,
            n_readers=endpoint.n_readers,
            capacity_bytes=endpoint.capacity_bytes,
            cache=endpoint.cache,
            write_timeout=write_timeout,
            coalesce_bytes=COALESCE_BYTES,
        )

    def open_reader(
        self,
        endpoint: BufferEndpoint,
        server: Tuple[str, int],
        reader_id: Optional[str] = None,
        read_timeout: Optional[float] = None,
    ) -> BufferReader:
        """Reader with a depth-4 read-ahead window; co-located readers
        of a broadcast stream (``n_readers > 1``) share fetched blocks."""
        client = self.client_for(*server)
        # The stream may not exist yet if the reader opens first: create
        # it with the endpoint's declared config (create is idempotent).
        client.create_stream(
            endpoint.stream,
            n_readers=endpoint.n_readers,
            capacity_bytes=endpoint.capacity_bytes,
            cache=endpoint.cache,
        )
        return client.open_reader(
            endpoint.stream,
            reader_id=reader_id or f"{self.machine}:{endpoint.stream}",
            read_timeout=read_timeout,
            read_ahead=True,
            read_ahead_depth=READ_AHEAD_DEPTH,
            shared_cache=endpoint.n_readers > 1,
        )

    def close(self) -> None:
        with self._lock:
            for client in self._clients.values():
                client.close()
            self._clients.clear()

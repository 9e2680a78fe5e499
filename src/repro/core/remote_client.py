"""Remote File Client: proxy access and copy-in/copy-out.

Section 3.1 describes the two remote strategies the FM can choose:

* **copy** — "the remote file can be copied to the local machine, and
  then local operations can be performed.  If the file is modified it
  can be copied back when it is CLOSED."  Implemented by
  :class:`CopyInOutFile`.
* **proxy** — "the FM can access the file on the remote machine using a
  proxy file server" (our GridFTP-like block server).  Implemented by
  :class:`RemoteProxyFile`, a file-like object that fetches blocks on
  demand, pipelines sequential reads through a read-ahead window, and
  batches small sequential writes into block-sized RPCs.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

from .. import ioutil, obs
from ..ioutil import ReadIntoFromRead
from ..transport.gridftp import DEFAULT_BLOCK, GridFtpClient
from ..transport.tcp import RpcClient
from .remote_io import BlockCache, ReadAheadWindow, RunBatcher

__all__ = ["RemoteProxyFile", "CopyInOutFile", "RemoteFileClient"]

#: Read-ahead requests kept in flight per proxy file (one worker each).
DEFAULT_PREFETCH_STREAMS = 4

_PREFETCH_RPCS = obs.counter(
    "fm_prefetch_rpcs_total", "Block RPCs issued by background prefetch channels"
)
_WRITE_FLUSHES = obs.counter(
    "fm_write_flushes_total", "Block flushes issued by write-behind coalescers"
)


class RemoteProxyFile(ReadIntoFromRead, io.RawIOBase):
    """File-like proxy over a remote file, block at a time.

    Reads fetch ``block_size``-aligned blocks through a shared
    :class:`~repro.core.remote_io.BlockCache`.  Once two consecutive
    blocks have been read (sequential access detected) a
    :class:`~repro.core.remote_io.ReadAheadWindow` keeps up to
    ``prefetch_streams`` upcoming blocks in flight on a dedicated RPC
    channel, so a sequential legacy read loop never stalls on a round
    trip; a block the window delivers enters the cache as it is read.
    Writes go write-behind through a
    :class:`~repro.core.remote_io.RunBatcher` as block-sized
    ``put_block`` RPCs, flushed on seek/flush/close (and before any
    read).

    Observable counters: ``rpc_reads`` (demand RPCs this handle
    issued), ``prefetch_hits`` (reads served by the pipeline),
    ``prefetch_wasted`` (prefetched blocks never consumed) and
    ``put_rpcs`` (block writes issued).
    """

    def __init__(
        self,
        client: GridFtpClient,
        path: str,
        writable: bool = False,
        block_size: int = DEFAULT_BLOCK,
        cache_blocks: int = 8,
        cache: Optional[BlockCache] = None,
        prefetch: bool = True,
        prefetch_streams: int = DEFAULT_PREFETCH_STREAMS,
    ):
        super().__init__()
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._client = client
        self._path = path
        self._writable = writable
        self._block_size = block_size
        self._pos = 0
        self._cache = cache if cache is not None else BlockCache(max(1, cache_blocks))
        self._size_cache: Optional[int] = None
        self.rpc_reads = 0  # demand RPCs issued by this handle
        self.prefetch_hits = 0
        self.put_rpcs = 0
        # -- pipeline state --
        self._prefetch_enabled = prefetch
        self._prefetch_streams = max(1, prefetch_streams)
        self._window: Optional[ReadAheadWindow] = None
        self._channel: Optional[RpcClient] = None
        self._last_block: Optional[int] = None
        self._streak = 0
        self._batcher = RunBatcher(self._flush_runs, block_size) if writable else None

    # -- capabilities ----------------------------------------------------------
    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return self._writable

    def seekable(self) -> bool:
        return True

    @property
    def prefetch_wasted(self) -> int:
        """Prefetched blocks (across the shared cache) never consumed."""
        live = self._window.wasted if self._window is not None else 0
        return self._cache.prefetch_wasted + live

    # -- geometry ----------------------------------------------------------
    def _size(self, refresh: bool = False) -> int:
        if self._size_cache is None or refresh:
            self._size_cache = self._client.size(self._path)
        return self._size_cache

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        self._flush_writes()
        if whence == os.SEEK_SET:
            new_pos = offset
        elif whence == os.SEEK_CUR:
            new_pos = self._pos + offset
        elif whence == os.SEEK_END:
            new_pos = self._size(refresh=True) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if new_pos < 0:
            raise ValueError("negative seek position")
        if new_pos // self._block_size != self._pos // self._block_size:
            # Jumping out of the current block breaks the sequential
            # run: collapse the window and drop queued read-ahead.
            self._streak = 0
            if self._window is not None:
                self._window.discard()
        self._pos = new_pos
        return self._pos

    def tell(self) -> int:
        return self._pos

    # -- pipeline ----------------------------------------------------------
    def _prefetch(self, offset: int, length: int) -> Tuple[bytes, Optional[int]]:
        """Window fetch: one ``get_block`` on the read-ahead channel."""
        assert self._channel is not None
        data = self._client.read_block_via(self._channel, self._path, offset, length)
        _PREFETCH_RPCS.inc()
        return data, None

    def _note_sequential(self, block_no: int, served_by_pipeline: bool) -> None:
        """Update the access-pattern detector and top up the window."""
        if self._last_block is not None and block_no == self._last_block + 1:
            self._streak += 1
        elif self._last_block is None or block_no != self._last_block:
            self._streak = 1
        self._last_block = block_no
        if not self._prefetch_enabled or self._streak < 2:
            return
        if self._window is None:
            self._channel = self._client.open_channel()
            self._window = ReadAheadWindow(
                self._prefetch,
                self._block_size,
                self._prefetch_streams,
                name=f"fm-prefetch:{self._path}",
                covered=lambda off: self._cache.contains(self._path, off // self._block_size),
                cancel=self._channel.close_all,
            )
        if served_by_pipeline:
            self._window.note_hit()
        self._window.note_eof(self._size())
        self._window.schedule((block_no + 1) * self._block_size)

    # -- reads -----------------------------------------------------------
    def _fetch_block(self, block_no: int) -> bytes:
        data, pipelined = self._cache.fetch(self._path, block_no)
        if data is None and self._window is not None:
            # Waits while the block is in flight instead of issuing a
            # duplicate demand RPC.
            taken = self._window.take(block_no * self._block_size)
            if taken:
                self._cache.put(self._path, block_no, taken, prefetched=True)
                data, pipelined = self._cache.fetch(self._path, block_no)
        if data is None:
            data = self._client.read_block(
                self._path, block_no * self._block_size, self._block_size
            )
            self.rpc_reads += 1
            self._cache.put(self._path, block_no, data, prefetched=False)
        elif pipelined:
            self.prefetch_hits += 1
        self._note_sequential(block_no, served_by_pipeline=pipelined)
        return data

    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        self._flush_writes()
        if size is None or size < 0:
            size = max(0, self._size(refresh=True) - self._pos)
        out = bytearray()
        while size > 0:
            block_no, inner = divmod(self._pos, self._block_size)
            block = self._fetch_block(block_no)
            if inner >= len(block):
                break  # EOF
            take = min(size, len(block) - inner)
            out += block[inner : inner + take]
            self._pos += take
            size -= take
            if len(block) < self._block_size and inner + take >= len(block):
                break  # short block == end of file
        return bytes(out)

    # -- writes -----------------------------------------------------------
    def _invalidate(self, offset: int, length: int) -> None:
        """Drop cached and read-ahead copies of ``[offset, offset+length)``."""
        first = offset // self._block_size
        last = (offset + length - 1) // self._block_size
        self._cache.invalidate(self._path, first, last)
        if self._window is not None:
            self._window.invalidate(offset, offset + length)
        self._size_cache = None

    def _flush_runs(self, runs: List[Tuple[int, bytes]]) -> None:
        """Batcher sink: one ``put_block`` per block-sized run piece."""
        for offset, data in runs:
            for start in range(0, len(data), self._block_size):
                self._client.write_block(
                    self._path, offset + start, data[start : start + self._block_size]
                )
                self.put_rpcs += 1
                _WRITE_FLUSHES.inc()
            self._invalidate(offset, len(data))

    def _flush_writes(self) -> None:
        if self._batcher is not None:
            self._batcher.flush()

    def write(self, data) -> int:  # type: ignore[override]
        if not self._writable:
            raise io.UnsupportedOperation("file not open for writing")
        data = bytes(data)
        if data:
            assert self._batcher is not None
            # Invalidate eagerly so a prefetched copy of the old bytes
            # can't be served between this write and its flush.
            self._invalidate(self._pos, len(data))
            self._batcher.write(self._pos, data)
            self._pos += len(data)
        return len(data)

    def flush(self) -> None:  # type: ignore[override]
        self._flush_writes()
        super().flush()

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._flush_writes()
        finally:
            if self._window is not None:
                self._window.close()
                self._cache.note_wasted(self._window.wasted)
                self._window = None
            if self._channel is not None:
                self._channel.close()
                self._channel = None
            super().close()


class CopyInOutFile(ReadIntoFromRead, io.RawIOBase):
    """Whole-file copy-in on open, copy-out on close (if modified).

    With ``verify=True`` the local copy's SHA-256 is compared against
    the server's after the fetch (end-to-end integrity over however
    many blocks/streams the transfer used).
    """

    def __init__(
        self,
        client: GridFtpClient,
        remote_path: str,
        mode: str,
        scratch_dir: Optional[Path] = None,
        verify: bool = False,
    ):
        super().__init__()
        self._client = client
        self._remote_path = remote_path
        self._verify = verify
        core = mode.replace("b", "").replace("t", "")
        self._reading = "r" in core or "+" in core
        self._writing = any(f in core for f in ("w", "a")) or "+" in core
        self._dirty = False
        if scratch_dir is not None:
            Path(scratch_dir).mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix="fm-copy-", dir=str(scratch_dir) if scratch_dir else None
        )
        os.close(fd)
        self._local_path = Path(tmp)
        if core in ("r", "r+", "a", "a+"):
            exists = client.exists(remote_path)
            if not exists:
                if core.startswith("a"):
                    # POSIX append creates a missing file; the copy-out
                    # on close materialises it remotely.
                    self._dirty = True
                else:
                    self._local_path.unlink(missing_ok=True)
                    raise FileNotFoundError(remote_path)
            else:
                client.fetch_file(remote_path, self._local_path)
                if verify:
                    self._verified_fetch()
        self._fh = open(self._local_path, self._local_mode(core))
        if core.startswith("a"):
            self._fh.seek(0, os.SEEK_END)

    #: Whole-file re-fetches attempted when a verified copy-in mismatches.
    _VERIFY_REFETCHES = 2

    def _verified_fetch(self) -> None:
        """Check the copy-in against the server; re-fetch on mismatch.

        The whole-file ``checksum`` op is the end of the integrity
        chain: it catches corruption the per-frame wire CRC cannot see
        (bit rot on disk, a bad block spliced in by a resumed
        transfer).  A mismatch discards the local copy and re-fetches
        from scratch — transient corruption heals; persistent mismatch
        (the remote file really changed under us, or the link corrupts
        every pass) raises after ``_VERIFY_REFETCHES`` re-fetches.
        """
        last_error: Optional[IOError] = None
        for attempt in range(1 + self._VERIFY_REFETCHES):
            try:
                self._verify_against_remote()
                return
            except IOError as exc:
                last_error = exc
                ioutil.count_integrity_error("copyin", "refetch")
                obs.event(
                    "copyin.refetch",
                    path=self._remote_path,
                    attempt=attempt + 1,
                )
                if attempt < self._VERIFY_REFETCHES:
                    self._client.fetch_file(self._remote_path, self._local_path)
        self._local_path.unlink(missing_ok=True)
        assert last_error is not None
        raise last_error

    def _verify_against_remote(self) -> None:
        local = ioutil.sha256_file(self._local_path)
        remote = self._client.checksum(self._remote_path)
        if local != remote:
            raise IOError(
                f"copy-in of {self._remote_path!r} failed checksum verification "
                f"(local {local[:12]}…, remote {remote[:12]}…)"
            )

    @staticmethod
    def _local_mode(core: str) -> str:
        # The local scratch copy always allows read+write so seeks work.
        return {"r": "rb", "r+": "r+b", "w": "w+b", "w+": "w+b", "a": "r+b", "a+": "r+b"}[core]

    @property
    def local_path(self) -> Path:
        return self._local_path

    def readable(self) -> bool:
        return self._reading

    def writable(self) -> bool:
        return self._writing

    def seekable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        if not self._reading:
            raise io.UnsupportedOperation("file not open for reading")
        return self._fh.read(size)

    def write(self, data) -> int:  # type: ignore[override]
        if not self._writing:
            raise io.UnsupportedOperation("file not open for writing")
        n = self._fh.write(bytes(data))
        self._dirty = True
        return n

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        return self._fh.seek(offset, whence)

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._fh.flush()
            if self._dirty:
                self._client.store_file(self._local_path, self._remote_path)
        finally:
            self._fh.close()
            self._local_path.unlink(missing_ok=True)
            super().close()


class RemoteFileClient:
    """Factory choosing proxy vs copy for one remote server.

    All proxy files opened through one instance share one
    :class:`BlockCache`, so concurrent readers of the same remote file
    pipeline for each other instead of re-fetching.
    """

    def __init__(
        self,
        client: GridFtpClient,
        scratch_dir: Optional[Path] = None,
        cache_blocks: int = 64,
        prefetch: bool = True,
        prefetch_streams: int = DEFAULT_PREFETCH_STREAMS,
    ):
        self.client = client
        self.scratch_dir = scratch_dir
        self.prefetch = prefetch
        self.prefetch_streams = prefetch_streams
        self.block_cache = BlockCache(cache_blocks)

    def open_proxy(
        self,
        path: str,
        mode: str = "r",
        block_size: int = DEFAULT_BLOCK,
        prefetch: Optional[bool] = None,
    ) -> RemoteProxyFile:
        core = mode.replace("b", "").replace("t", "")
        writable = any(f in core for f in ("w", "a", "+"))
        exists = self.client.exists(path)
        if core in ("r", "r+") and not exists:
            raise FileNotFoundError(path)
        if core in ("w", "w+"):
            self.client.write_block(path, 0, b"", truncate=True)
            self.block_cache.invalidate_path(path)
        if core.startswith("a") and not exists:
            # POSIX append creates the file rather than failing.
            self.client.write_block(path, 0, b"")
        f = RemoteProxyFile(
            self.client,
            path,
            writable=writable,
            block_size=block_size,
            cache=self.block_cache,
            prefetch=self.prefetch if prefetch is None else prefetch,
            prefetch_streams=self.prefetch_streams,
        )
        if core.startswith("a"):
            f.seek(0, os.SEEK_END)
        return f

    def open_copy(self, path: str, mode: str = "r", verify: bool = False) -> CopyInOutFile:
        return CopyInOutFile(
            self.client, path, mode, scratch_dir=self.scratch_dir, verify=verify
        )

"""The File Multiplexer (FM).

"The key to providing a flexible IO system is to interpose a library
between the application and the Grid...  The FM intercepts all file
operations as specified in the legacy application.  When the program
performs an OPEN operation, the FM determines which mode to use, and
sets up the appropriate pathways.  Each OPEN operation makes an
independent choice." (Section 3.1)

:class:`FileMultiplexer` is that library.  ``open()`` consults the GNS
for the ``(machine, path)`` of the call and returns an :class:`FMFile`
backed by whichever client the record selects:

* ``local``           → :class:`~repro.core.local_client.LocalFileClient`
* ``copy``            → :class:`~repro.core.remote_client.CopyInOutFile`
* ``remote``          → :class:`~repro.core.remote_client.RemoteProxyFile`
* ``remote-replica``  → replica selection + proxy, with dynamic re-map
* ``local-replica``   → replica selection + copy-in, then local IO
* ``buffer``          → :class:`~repro.core.buffer_client.GridBufferClientPool`

No application source changes are required: the program calls plain
``open/read/write/seek/close`` (optionally via
:mod:`repro.core.interpose`) and re-wiring happens entirely in the GNS.
"""

from __future__ import annotations

import io
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from .. import obs
from ..gns.client import GnsClient, LocalGnsClient
from ..gns.records import BufferEndpoint, GnsRecord, IOMode
from ..grid.replica_catalog import Replica
from ..ioutil import ReadIntoFromRead
from ..transport.gridftp import GridFtpClient, TransferError
from ..transport.inmem import HostRegistry
from ..transport.tcp import RpcError
from .buffer_client import GridBufferClientPool
from .local_client import LocalFileClient
from .policy import AccessEstimate, AccessPolicy, observed_estimate
from .remote_client import RemoteFileClient
from .replica import NoReplicaError, ReplicaSelector

__all__ = ["FMError", "OpenStats", "GridContext", "FMFile", "FileMultiplexer"]

logger = logging.getLogger("repro.core.fm")

_FM_OPENS = obs.counter(
    "fm_opens_total", "FM open() calls by resolved IO mode", labelnames=("mode",)
)
_FM_OPS = obs.counter(
    "fm_ops_total", "FM file operations by op and IO mode", labelnames=("op", "mode")
)
_FM_BYTES = obs.counter(
    "fm_bytes_total", "Bytes through FM handles by direction and IO mode",
    labelnames=("direction", "mode"),
)
_FM_REMAPS = obs.counter(
    "fm_remaps_total", "Mid-read replica re-mappings performed by FM handles"
)
_FM_LIVE_REMAPS = obs.counter(
    "fm_live_remaps_total",
    "Open streams migrated between IO modes mid-run by a GNS change",
    labelnames=("from", "to"),
)
_FM_FAILOVERS = obs.counter(
    "replica_failovers_total",
    "Replica sources abandoned after an IO failure, by logical name",
    labelnames=("logical_name",),
)
_FM_DEGRADED = obs.counter(
    "fm_mode_degraded_total",
    "Opens degraded to a fallback IO mode (unreachable primary)",
    labelnames=("from_mode", "to_mode"),
)

Address = Tuple[str, int]
Locator = Union[Callable[[str], Address], Dict[str, Address]]


class FMError(RuntimeError):
    """Configuration or dispatch failure inside the FM."""


#: IO modes a live stream can be migrated between mid-run.  The two
#: replica modes keep their own selector-driven remap machinery and a
#: buffered *writer* owns its stream, so neither participates.
_MIGRATABLE = frozenset({IOMode.LOCAL, IOMode.COPY, IOMode.REMOTE, IOMode.BUFFER})


def _as_locator(loc: Optional[Locator], what: str) -> Callable[[str], Address]:
    if loc is None:
        def missing(host: str) -> Address:
            raise FMError(f"no {what} locator configured (needed for host {host!r})")
        return missing
    if callable(loc):
        return loc
    table = dict(loc)

    def lookup(host: str) -> Address:
        try:
            return table[host]
        except KeyError:
            raise FMError(f"no {what} registered for host {host!r}") from None
    return lookup


@dataclass
class OpenStats:
    """Per-open counters — the 'access pattern' input to the policy."""

    path: str = ""
    mode: str = ""
    io_mode: str = ""
    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0
    seeks: int = 0
    remaps: int = 0
    failovers: int = 0


@dataclass
class GridContext:
    """Everything one FM instance needs to reach the grid.

    Only ``machine`` and ``gns`` are mandatory; the other fields are
    required only by the modes that use them (e.g. ``gridftp`` for
    remote/copy, ``buffer_locator`` for direct connections).
    """

    machine: str
    gns: Union[GnsClient, LocalGnsClient]
    hosts: Optional[HostRegistry] = None
    gridftp: Optional[Locator] = None
    buffer_locator: Optional[Locator] = None
    selector: Optional[ReplicaSelector] = None
    policy: AccessPolicy = field(default_factory=AccessPolicy)
    scratch_dir: Optional[Path] = None
    io_timeout: Optional[float] = 120.0
    #: Re-consult the replica selector every N reads on read-only
    #: replicated opens (Section 3.1's dynamic re-mapping cadence).
    remap_every: int = 64
    #: Verify the SHA-256 of every copy-in against the remote server.
    verify_copies: bool = False
    #: Pipeline sequential proxy reads through a background prefetcher.
    prefetch: bool = True
    #: Parallel TCP streams for bulk copies (fetch and store).
    parallel_streams: int = 1
    #: Pipeline Grid Buffer reads through an adaptive read-ahead window.
    buffer_readahead: bool = True
    #: Maximum windowed read RPCs kept in flight per buffered reader.
    buffer_readahead_depth: int = 4
    #: Coalesce Grid Buffer writes into batches of this many bytes.
    #: Safe by default: the writer's flush deadline bounds how long a
    #: partial batch stays local (0 = write-through per WRITE call).
    buffer_coalesce_bytes: int = 64 * 1024
    #: Upper bound (seconds) on coalesced-write visibility lag; None
    #: uses REPRO_BUFFER_FLUSH_DEADLINE (default 20 ms).
    buffer_flush_deadline: Optional[float] = None
    #: Share fetched blocks between co-located readers of one broadcast
    #: stream (None = auto: enabled when the endpoint has >1 readers).
    buffer_shared_cache: Optional[bool] = None
    #: Subscribe to GNS changes and live-migrate open read streams
    #: between IO modes mid-run (COPY↔BUFFER and friends) when their
    #: records are edited.  Off by default: resolve-at-open only.
    live_remap: bool = False
    #: Long-poll budget (seconds) for one ``gns.watch`` round of the
    #: live-remap watcher; also bounds how long FM close can stall on
    #: a parked watch.
    watch_budget: float = 1.0


class FMFile(ReadIntoFromRead, io.RawIOBase):
    """The handle returned by :meth:`FileMultiplexer.open`.

    Wraps whichever client implements this open's IO mode, counts
    traffic, and (for read-only replicated opens) consults the replica
    selector periodically to re-map mid-run.
    """

    def __init__(
        self,
        inner: io.RawIOBase,
        record: GnsRecord,
        stats: OpenStats,
        remap_hook: Optional[Callable[["FMFile"], Optional[io.RawIOBase]]] = None,
        remap_every: int = 64,
        failover_hook: Optional[
            Callable[["FMFile", BaseException], Optional[io.RawIOBase]]
        ] = None,
    ):
        super().__init__()
        self._inner = inner
        self.record = record
        self.stats = stats
        self._remap_hook = remap_hook
        self._remap_every = max(1, remap_every)
        self._failover_hook = failover_hook
        # Live-remap plumbing, attached by the FM after a live open:
        # the watcher parks a pending record here and the reader's own
        # thread applies it at the next read boundary (the quiesce
        # point — FMFile is single-reader, so no IO is in flight).
        self._migrate_opener: Optional[Callable[[GnsRecord], io.RawIOBase]] = None
        self._on_close: Optional[Callable[[], None]] = None
        self._pending_record: Optional[GnsRecord] = None
        self._pending_lock = threading.Lock()
        self._bind_metrics(record.mode.value)

    def _bind_metrics(self, mode: str) -> None:
        # Children bound once per open (and re-bound on a live
        # migration): the per-op cost is a lock + add.
        self._m_reads = _FM_OPS.labels(op="read", mode=mode)
        self._m_writes = _FM_OPS.labels(op="write", mode=mode)
        self._m_seeks = _FM_OPS.labels(op="seek", mode=mode)
        self._m_closes = _FM_OPS.labels(op="close", mode=mode)
        self._m_bytes_read = _FM_BYTES.labels(direction="read", mode=mode)
        self._m_bytes_written = _FM_BYTES.labels(direction="write", mode=mode)

    # -- capability passthrough ---------------------------------------------
    def readable(self) -> bool:
        return self._inner.readable()

    def writable(self) -> bool:
        return self._inner.writable()

    def seekable(self) -> bool:
        return self._inner.seekable()

    @property
    def io_mode(self) -> IOMode:
        return self.record.mode

    # -- IO with accounting ---------------------------------------------------
    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        self._maybe_migrate()
        self._maybe_remap()
        data = self._read_failsafe(size)
        self.stats.read_ops += 1
        self.stats.bytes_read += len(data or b"")
        self._m_reads.inc()
        self._m_bytes_read.inc(len(data or b""))
        return data

    def _read_failsafe(self, size: int) -> bytes:
        """One logical read; fails over to a replacement source if wired.

        The position is captured *before* the attempt: a failed read may
        already have advanced the inner handle's bookkeeping for bytes
        that were never returned, so the replacement must resume from
        the pre-read offset, not the post-failure one.
        """
        while True:
            pos = self._inner.tell()
            try:
                return self._inner.read(size)
            except (OSError, RpcError) as exc:
                if self._failover_hook is None:
                    raise
                replacement = self._failover_hook(self, exc)
                if replacement is None:
                    raise
                try:
                    self._inner.close()
                except (OSError, RpcError):
                    pass  # the old source is already dead
                replacement.seek(pos)
                self._inner = replacement
                self.stats.failovers += 1

    def write(self, data) -> int:  # type: ignore[override]
        n = self._inner.write(bytes(data)) or 0
        self.stats.write_ops += 1
        self.stats.bytes_written += n
        self._m_writes.inc()
        self._m_bytes_written.inc(n)
        return n

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        self.stats.seeks += 1
        self._m_seeks.inc()
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def flush(self) -> None:
        if not self._inner.closed:
            self._inner.flush()

    def close(self) -> None:
        if not self.closed:
            self._m_closes.inc()
            try:
                self._inner.close()
            finally:
                super().close()
                if self._on_close is not None:
                    self._on_close()

    def abort(self) -> None:
        """Abandon the handle after a stage crash.

        Buffered writers propagate the abort so blocked readers fail
        fast (StreamFailed) instead of hanging to their timeout; other
        clients just close.
        """
        if self.closed:
            return
        inner_abort = getattr(self._inner, "abort", None)
        try:
            if callable(inner_abort):
                inner_abort()
            else:
                self._inner.close()
        finally:
            super().close()
            if self._on_close is not None:
                self._on_close()

    # -- dynamic re-mapping -------------------------------------------------
    def _maybe_remap(self) -> None:
        if self._remap_hook is None:
            return
        if self.stats.read_ops % self._remap_every != 0:
            return
        replacement = self._remap_hook(self)
        if replacement is not None:
            pos = self._inner.tell()
            old = self._inner
            replacement.seek(pos)
            self._inner = replacement
            old.close()
            self.stats.remaps += 1
            _FM_REMAPS.inc()

    # -- live migration (GNS-driven mode change) ----------------------------
    def request_migration(self, record: GnsRecord) -> bool:
        """Ask this handle to move to ``record`` at its next read boundary.

        Called by the FM's GNS watcher (any thread).  The actual swap
        happens on the reader's own thread inside :meth:`read`, which
        is the safe block boundary: no IO is in flight, the offset is
        a clean checkpoint, and the stream resumes byte-exact.
        """
        if self._migrate_opener is None or self.closed:
            return False
        if record.mode not in _MIGRATABLE or self.record.mode not in _MIGRATABLE:
            return False
        if record == self.record:
            return False
        with self._pending_lock:
            self._pending_record = record
        return True

    def _maybe_migrate(self) -> None:
        with self._pending_lock:
            record, self._pending_record = self._pending_record, None
        if record is None or record == self.record or self._migrate_opener is None:
            return
        from_mode = self.record.mode.value
        to_mode = record.mode.value
        with obs.span(
            "remap", path=self.stats.path, from_mode=from_mode, to_mode=to_mode
        ):
            pos = self._inner.tell()
            try:
                replacement = self._migrate_opener(record)
                replacement.seek(pos)
            except (OSError, RpcError, FMError) as exc:
                # New binding unreachable: stay on the current one; a
                # later GNS change (or the same record, retried by the
                # watcher on its next batch) can still move us.
                obs.event(
                    "fm.live_remap_failed",
                    path=self.stats.path,
                    from_mode=from_mode,
                    to_mode=to_mode,
                    error=str(exc),
                )
                logger.warning(
                    "live remap of %s %s->%s failed (%s); staying on %s",
                    self.stats.path, from_mode, to_mode, exc, from_mode,
                )
                return
            old = self._inner
            self._inner = replacement
            try:
                old.close()
            except (OSError, RpcError):
                pass  # the old binding may already be dead; we have moved on
            self.record = record
            self.stats.io_mode = to_mode
            self.stats.remaps += 1
            self._bind_metrics(to_mode)
            _FM_LIVE_REMAPS.labels(**{"from": from_mode, "to": to_mode}).inc()
            obs.event(
                "fm.live_remap",
                path=self.stats.path,
                from_mode=from_mode,
                to_mode=to_mode,
                offset=pos,
            )
            logger.info(
                "live remap %s: %s -> %s at offset %d",
                self.stats.path, from_mode, to_mode, pos,
            )


class FileMultiplexer:
    """One per application process; dispatches opens by GNS record."""

    def __init__(self, ctx: GridContext):
        self.ctx = ctx
        host = ctx.hosts.host(ctx.machine) if ctx.hosts is not None else None
        self._local = LocalFileClient(host)
        self._gridftp_locator = _as_locator(ctx.gridftp, "GridFTP")
        self._buffer_locator = _as_locator(ctx.buffer_locator, "Grid Buffer")
        self._ftp_clients: Dict[str, GridFtpClient] = {}
        self._remote_clients: Dict[str, RemoteFileClient] = {}
        self._lock = threading.Lock()
        self.open_history: list[OpenStats] = []
        # Measured per-host throughput/latency; feeds the access policy
        # and sizes the buffered readers' read-ahead windows.
        from .trace import TransferMonitor  # local import: trace imports us

        self.monitor = TransferMonitor()
        self._buffer_pool = GridBufferClientPool(ctx.machine, monitor=self.monitor)
        # Live-remap state: open read handles watching the GNS, plus
        # the background thread driving the gns.watch long-poll.
        self._watched: Dict[int, Tuple[str, FMFile]] = {}
        self._watch_lock = threading.Lock()
        self._watch_stop = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None

    # -- plumbing ----------------------------------------------------------
    def _ftp(self, host: str) -> GridFtpClient:
        with self._lock:
            client = self._ftp_clients.get(host)
            if client is None:
                addr = self._gridftp_locator(host)
                client = GridFtpClient(
                    *addr,
                    parallel_streams=self.ctx.parallel_streams,
                    monitor=self.monitor,
                    peer=host,
                )
                self._ftp_clients[host] = client
            return client

    def _remote(self, host: str) -> RemoteFileClient:
        with self._lock:
            remote = self._remote_clients.get(host)
        if remote is not None:
            return remote
        client = self._ftp(host)
        with self._lock:
            remote = self._remote_clients.get(host)
            if remote is None:
                remote = RemoteFileClient(
                    client, scratch_dir=self.ctx.scratch_dir, prefetch=self.ctx.prefetch
                )
                self._remote_clients[host] = remote
            return remote

    def link_estimate(self, host: str, file_size: int, read_fraction: float = 1.0) -> AccessEstimate:
        """An :class:`AccessEstimate` for ``host`` from measured numbers."""
        return observed_estimate(self.monitor, host, file_size, read_fraction=read_fraction)

    # -- the public entry point ----------------------------------------------
    def open(self, path: str, mode: str = "r") -> FMFile:
        """Open ``path`` the way the GNS says this machine should."""
        record = self.ctx.gns.resolve(self.ctx.machine, path)
        stats = OpenStats(path=path, mode=mode, io_mode=record.mode.value)
        self.open_history.append(stats)
        _FM_OPENS.labels(mode=record.mode.value).inc()
        obs.event(
            "fm.open", path=path, machine=self.ctx.machine, io_mode=record.mode.value
        )
        logger.debug(
            "open %s mode=%s on %s -> %s", path, mode, self.ctx.machine, record.mode.value
        )
        dispatch = {
            IOMode.LOCAL: self._open_local,
            IOMode.COPY: self._open_copy,
            IOMode.REMOTE: self._open_remote,
            IOMode.REMOTE_REPLICA: self._open_remote_replica,
            IOMode.LOCAL_REPLICA: self._open_local_replica,
            IOMode.BUFFER: self._open_buffer,
        }
        try:
            opener = dispatch[record.mode]
        except KeyError:  # pragma: no cover - enum is closed
            raise FMError(f"unhandled IO mode {record.mode!r}")
        fmfile = opener(record, path, mode, stats)
        self._maybe_register_live(path, mode, fmfile)
        return fmfile

    # -- per-mode openers ---------------------------------------------------
    def _open_local(self, record: GnsRecord, path: str, mode: str, stats: OpenStats) -> FMFile:
        real = record.local_path or path
        return FMFile(self._local.open(real, mode), record, stats)

    def _open_copy(self, record: GnsRecord, path: str, mode: str, stats: OpenStats) -> FMFile:
        remote = self._remote(record.remote_host)  # type: ignore[arg-type]
        inner = remote.open_copy(
            record.remote_path, mode, verify=self.ctx.verify_copies  # type: ignore[arg-type]
        )
        return FMFile(inner, record, stats)

    def _open_remote(self, record: GnsRecord, path: str, mode: str, stats: OpenStats) -> FMFile:
        remote = self._remote(record.remote_host)  # type: ignore[arg-type]
        inner = remote.open_proxy(record.remote_path, mode)  # type: ignore[arg-type]
        return FMFile(inner, record, stats)

    def _choose_replica(self, record: GnsRecord, exclude=()) -> Replica:
        if self.ctx.selector is None:
            raise FMError(
                f"replicated file {record.logical_name!r} needs a ReplicaSelector"
            )
        choice = self.ctx.selector.best(
            record.logical_name, self.ctx.machine, exclude=exclude  # type: ignore[arg-type]
        )
        return choice.replica

    def _open_remote_replica(
        self, record: GnsRecord, path: str, mode: str, stats: OpenStats
    ) -> FMFile:
        core = mode.replace("b", "").replace("t", "")
        if core != "r":
            raise FMError("replicated files are read-only")
        failed: set = set()  # (host, path) of sources that died mid-read
        replica = self._choose_replica(record)
        current = {"replica": replica}
        inner = self._open_replica_source(replica)

        def remap_hook(_fmfile: FMFile) -> Optional[io.RawIOBase]:
            choice = self.ctx.selector.maybe_remap(  # type: ignore[union-attr]
                record.logical_name, self.ctx.machine, current["replica"],  # type: ignore[arg-type]
                exclude=failed,
            )
            if choice is None:
                return None
            current["replica"] = choice.replica
            return self._open_replica_source(choice.replica)

        def failover_hook(_fmfile: FMFile, exc: BaseException) -> Optional[io.RawIOBase]:
            dead = current["replica"]
            failed.add((dead.host, dead.path))
            try:
                choice = self.ctx.selector.best(  # type: ignore[union-attr]
                    record.logical_name, self.ctx.machine, exclude=failed  # type: ignore[arg-type]
                )
            except NoReplicaError:
                return None  # exhausted: let the original failure surface
            current["replica"] = choice.replica
            _FM_FAILOVERS.labels(logical_name=record.logical_name).inc()
            obs.event(
                "fm.replica_failover",
                logical_name=record.logical_name,
                from_host=dead.host,
                to_host=choice.replica.host,
                error=str(exc),
            )
            logger.warning(
                "replica %s on %s failed (%s); failing over to %s",
                record.logical_name, dead.host, exc, choice.replica.host,
            )
            return self._open_replica_source(choice.replica)

        return FMFile(
            inner,
            record,
            stats,
            remap_hook=remap_hook,
            remap_every=self.ctx.remap_every,
            failover_hook=failover_hook,
        )

    def _open_replica_source(self, replica: Replica) -> io.RawIOBase:
        if replica.host == self.ctx.machine:
            return self._local.open(replica.path, "r")
        return self._remote(replica.host).open_proxy(replica.path, "r")

    def _open_local_replica(
        self, record: GnsRecord, path: str, mode: str, stats: OpenStats
    ) -> FMFile:
        core = mode.replace("b", "").replace("t", "")
        if core != "r":
            raise FMError("replicated files are read-only")
        failed: set = set()
        resume = 0  # contiguous bytes already copied by failed attempts
        last_exc: Optional[Exception] = None
        local_copy = record.local_path or f"/fm-replica-cache{path}"
        while True:
            try:
                replica = self._choose_replica(record, exclude=failed)
            except NoReplicaError:
                if last_exc is not None:
                    raise last_exc
                raise
            if replica.host == self.ctx.machine:
                return FMFile(self._local.open(replica.path, "r"), record, stats)
            target = self._local.resolve(local_copy)
            try:
                # Replicas are byte-identical, so a copy interrupted at
                # offset N resumes at N from the *next* source.
                self._ftp(replica.host).fetch_file(
                    replica.path, target, resume_from=resume
                )
            except (TransferError, OSError, RpcError) as exc:
                failed.add((replica.host, replica.path))
                if isinstance(exc, TransferError):
                    resume = exc.copied
                last_exc = exc
                stats.failovers += 1
                _FM_FAILOVERS.labels(logical_name=record.logical_name).inc()
                obs.event(
                    "fm.replica_failover",
                    logical_name=record.logical_name,
                    from_host=replica.host,
                    resume_from=resume,
                    error=str(exc),
                )
                logger.warning(
                    "copy-in of %s from %s died at byte %d (%s); trying next replica",
                    record.logical_name, replica.host, resume, exc,
                )
                continue
            return FMFile(self._local.open(local_copy, "r"), record, stats)

    def _open_buffer(self, record: GnsRecord, path: str, mode: str, stats: OpenStats) -> FMFile:
        endpoint = record.buffer
        assert endpoint is not None  # enforced by GnsRecord validation
        core = mode.replace("b", "").replace("t", "")
        role = "reader" if core == "r" else "writer"
        if core in ("r+", "w+", "a+"):
            raise FMError("buffered streams are unidirectional (read xor write)")
        try:
            server = self._locate_buffer(endpoint, role)
            if role == "writer":
                inner = self._buffer_pool.open_writer(
                    endpoint,
                    server,
                    write_timeout=self.ctx.io_timeout,
                    coalesce_bytes=self.ctx.buffer_coalesce_bytes,
                    flush_after=self.ctx.buffer_flush_deadline,
                )
            else:
                inner = self._buffer_pool.open_reader(
                    endpoint,
                    server,
                    read_timeout=self.ctx.io_timeout,
                    read_ahead=self.ctx.buffer_readahead,
                    read_ahead_depth=self.ctx.buffer_readahead_depth,
                    shared_cache=self.ctx.buffer_shared_cache,
                )
        except (OSError, RpcError) as exc:
            if record.fallback is None:
                raise
            return self._degrade(record, path, mode, stats, exc)
        return FMFile(inner, record, stats)

    def _degrade(
        self,
        record: GnsRecord,
        path: str,
        mode: str,
        stats: OpenStats,
        exc: BaseException,
    ) -> FMFile:
        """Walk the record's fallback chain after an unreachable OPEN."""
        fallback = record.fallback
        while fallback is not None:
            _FM_DEGRADED.labels(
                from_mode=record.mode.value, to_mode=fallback.mode.value
            ).inc()
            _FM_REMAPS.inc()
            stats.remaps += 1
            stats.io_mode = fallback.mode.value
            obs.event(
                "fm.mode_degraded",
                path=path,
                from_mode=record.mode.value,
                to_mode=fallback.mode.value,
                error=str(exc),
            )
            logger.warning(
                "open %s: %s unreachable (%s); degrading to %s",
                path, record.mode.value, exc, fallback.mode.value,
            )
            try:
                return self._open_with(fallback, path, mode, stats)
            except (OSError, RpcError) as next_exc:
                exc = next_exc
                record, fallback = fallback, fallback.fallback
        raise exc

    def _open_with(self, record: GnsRecord, path: str, mode: str, stats: OpenStats) -> FMFile:
        # Dispatch for fallback records; open() keeps its own inline
        # table (the conformance suite checks the mode names there).
        openers = {
            IOMode.LOCAL: self._open_local,
            IOMode.COPY: self._open_copy,
            IOMode.REMOTE: self._open_remote,
            IOMode.REMOTE_REPLICA: self._open_remote_replica,
            IOMode.LOCAL_REPLICA: self._open_local_replica,
            IOMode.BUFFER: self._open_buffer,
        }
        return openers[record.mode](record, path, mode, stats)

    # -- live remap (GNS change subscription) -------------------------------
    def _maybe_register_live(self, path: str, mode: str, fmfile: FMFile) -> None:
        """Put a freshly opened read handle under GNS watch.

        Writers keep their binding (a buffered writer owns its stream)
        and replica opens keep their selector-driven remap machinery;
        everything else migrates when its record changes.
        """
        if not self.ctx.live_remap:
            return
        core = mode.replace("b", "").replace("t", "")
        if core != "r" or fmfile.record.mode not in _MIGRATABLE:
            return
        key = id(fmfile)
        fmfile._migrate_opener = lambda record: self._migration_inner(record, path, mode)
        fmfile._on_close = lambda: self._unregister_live(key)
        with self._watch_lock:
            self._watched[key] = (path, fmfile)
            if self._watch_thread is None and not self._watch_stop.is_set():
                self._watch_thread = threading.Thread(
                    target=self._watch_loop,
                    name=f"fm-gns-watch-{self.ctx.machine}",
                    daemon=True,
                )
                self._watch_thread.start()
        # Close the open-vs-subscribe race: a txn landing between this
        # open's resolve and the watcher's baseline would otherwise be
        # invisible until the next change.
        try:
            current = self.ctx.gns.resolve(self.ctx.machine, path)
        except (OSError, RpcError):
            return  # control plane briefly unreachable; watcher retries
        if current != fmfile.record:
            fmfile.request_migration(current)

    def _unregister_live(self, key: int) -> None:
        with self._watch_lock:
            self._watched.pop(key, None)

    def _watch_loop(self) -> None:
        """Drive the gns.watch long-poll; resume from revision on faults.

        Server death mid-watch surfaces here as OSError/RpcError: the
        loop backs off and re-issues the watch from the last revision
        it has applied, so the store replays whatever was missed — no
        change is lost or seen twice.
        """
        gns = self.ctx.gns
        revision = -1
        while not self._watch_stop.is_set():
            try:
                if revision < 0:
                    revision = gns.watch(from_revision=-1, timeout=0.0).revision
                    self._apply_watch()
                    continue
                batch = gns.watch(from_revision=revision, timeout=self.ctx.watch_budget)
            except (OSError, RpcError) as exc:
                obs.event("fm.watch_retry", machine=self.ctx.machine, error=str(exc))
                if self._watch_stop.wait(0.1):
                    return
                continue
            if batch.events or batch.reset:
                self._apply_watch()
            revision = batch.revision

    def _apply_watch(self) -> None:
        """Re-resolve every watched path; queue migrations for changes."""
        with self._watch_lock:
            snapshot = list(self._watched.values())
        for path, fmfile in snapshot:
            if fmfile.closed:
                continue
            try:
                record = self.ctx.gns.resolve(self.ctx.machine, path)
            except (OSError, RpcError):
                continue  # control plane briefly unreachable; next batch retries
            if record != fmfile.record:
                fmfile.request_migration(record)

    def _migration_inner(self, record: GnsRecord, path: str, mode: str) -> io.RawIOBase:
        """Open the raw source a live migration moves a read handle onto."""
        if record.mode is IOMode.LOCAL:
            return self._local.open(record.local_path or path, mode)
        if record.mode is IOMode.COPY:
            remote = self._remote(record.remote_host)  # type: ignore[arg-type]
            return remote.open_copy(
                record.remote_path, mode, verify=self.ctx.verify_copies  # type: ignore[arg-type]
            )
        if record.mode is IOMode.REMOTE:
            remote = self._remote(record.remote_host)  # type: ignore[arg-type]
            return remote.open_proxy(record.remote_path, mode)  # type: ignore[arg-type]
        if record.mode is IOMode.BUFFER:
            endpoint = record.buffer
            assert endpoint is not None  # enforced by GnsRecord validation
            server = self._locate_buffer(endpoint, "reader")
            return self._buffer_pool.open_reader(
                endpoint,
                server,
                read_timeout=self.ctx.io_timeout,
                read_ahead=self.ctx.buffer_readahead,
                read_ahead_depth=self.ctx.buffer_readahead_depth,
                shared_cache=self.ctx.buffer_shared_cache,
            )
        raise FMError(f"live migration to mode {record.mode.value!r} is unsupported")

    def _locate_buffer(self, endpoint: BufferEndpoint, role: str) -> Address:
        if endpoint.host and endpoint.port:
            return (endpoint.host, endpoint.port)
        # Ask the GNS matcher; it places the server per the endpoint's
        # placement policy once the matching endpoint announces.
        host, port = self.ctx.gns.announce(
            endpoint.stream, role, self.ctx.machine, endpoint.placement
        )
        if not host or not port:
            # Matcher had no locator: place on this machine if we can.
            return self._buffer_locator(self.ctx.machine)
        return (host, port)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        self._watch_stop.set()
        thread = self._watch_thread
        if thread is not None:
            # Best-effort: the watcher is a daemon parked in a bounded
            # long-poll; it observes the stop flag on its next round.
            thread.join(timeout=0.2)
            self._watch_thread = None
        with self._watch_lock:
            self._watched.clear()
        self._buffer_pool.close()
        with self._lock:
            for client in self._ftp_clients.values():
                client.close()
            self._ftp_clients.clear()

    def __enter__(self) -> "FileMultiplexer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

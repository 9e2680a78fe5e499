"""The three closed-loop workloads the benchmark drives on the real stack.

Each workload is one class with the same life cycle per iteration:

* ``setup(index)`` builds a fresh world (host sandboxes, servers, GNS
  records and the File Multiplexers) and returns it; the caller times
  it as ``setup_s``;
* ``run(world)`` is the timed closed-loop body and returns a
  :class:`Sample`;
* ``teardown(world)`` stops every server and deletes the sandbox.

A fresh world per iteration keeps iterations independent (no stream,
block cache or copy survives into the next one) and gives ``setup_s``
one sample per iteration.  Latency is injected only through the
``simulated_latency=`` argument of the real servers.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.apps.mecheng import durability_workflow
from repro.core import FileMultiplexer, GridContext
from repro.gns import BufferEndpoint, GnsRecord, IOMode, LocalGnsClient, NameService
from repro.gridbuffer import GridBufferServer
from repro.transport import GridFtpServer, HostRegistry
from repro.workflow import GridDeployment, RealRunner, plan_workflow
from repro.workflow.spec import Stage, Workflow

#: Size of every legacy ``write``/``read`` call on the streaming workloads.
CALL_BYTES = 4096
#: One-way latency injected by the servers of the two ``-5ms`` workloads.
LINK_LATENCY_S = 0.005
#: Upper bound on one iteration; a hung thread fails the iteration.
ITERATION_TIMEOUT_S = 60.0


class OutputMismatch(AssertionError):
    """An output check failed: the bytes that came out are not the input."""


@dataclass
class Sample:
    """What one timed iteration measured."""

    makespan_s: float
    first_byte_s: float
    payload_bytes: int
    checks: int = 0  # output checks that ran and passed


def payload(seed: int, tag: str, nbytes: int) -> bytes:
    """Seeded payload: the same ``(seed, tag)`` always gives the same bytes."""
    return random.Random(f"{seed}:{tag}").randbytes(nbytes)


def _join_all(threads: List[threading.Thread], errors: List[BaseException]) -> None:
    deadline = time.monotonic() + ITERATION_TIMEOUT_S
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            errors.append(TimeoutError(f"{t.name} did not finish"))
    if errors:
        raise errors[0]


def _run_threads(bodies: Dict[str, Callable[[threading.Barrier], None]]) -> None:
    """Start every body together (barrier) and re-raise the first failure."""
    errors: List[BaseException] = []
    barrier = threading.Barrier(len(bodies))

    def guard(body):
        def target():
            try:
                body(barrier)
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                barrier.abort()
                errors.append(exc)
        return target

    threads = [
        threading.Thread(target=guard(body), name=f"perfbench-{name}", daemon=True)
        for name, body in bodies.items()
    ]
    for t in threads:
        t.start()
    _join_all(threads, errors)


# ---------------------------------------------------------------------------
# durability: the Section 5.2 pipeline through RealRunner
# ---------------------------------------------------------------------------
class _FirstByteProbe:
    """Wraps the text handle a stage opened; notes when its first line arrives."""

    def __init__(self, inner, on_first: Callable[[float], None]):
        self._inner = inner
        self._on_first = on_first

    def readline(self, *args):
        line = self._inner.readline(*args)
        if self._on_first is not None:
            self._on_first(time.perf_counter())
            self._on_first = None
        return line

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._inner.close()


class _ProbeIO:
    """The StageIO a probed stage sees: same calls, one file timed."""

    def __init__(self, io, name: str, record: Callable[[float], None]):
        self._io = io
        self._name = name
        self._record = record

    def open(self, name: str, mode: str = "r"):
        if name != self._name:
            return self._io.open(name, mode)
        t0 = time.perf_counter()
        return _FirstByteProbe(self._io.open(name, mode), lambda t: self._record(t - t0))

    def param(self, key, default=None):
        return self._io.param(key, default)

    def path_of(self, name: str) -> str:
        return self._io.path_of(name)


class Durability:
    """CHAMMY → PAFEC → MAKE_SF_FILES → FAST → OBJECTIVE on one machine.

    All five stages are placed on ``jagan`` and coupled by Grid Buffers
    at 0 ms (Table 2, experiment 2).  ``first_byte`` is PAFEC's open of
    PROFILE_COORD.DAT until its first line: the buffer rendezvous plus
    CHAMMY's compute and flush.
    """

    name = "durability"
    MACHINE = "jagan"
    STAGES = ("CHAMMY", "PAFEC", "MAKE_SF_FILES", "FAST", "OBJECTIVE")
    RESULT = "RESULT.DAT"
    PROBED_STAGE = "PAFEC"
    PROBED_FILE = "PROFILE_COORD.DAT"
    #: Mesh size as in examples/durability_pipeline.py.
    BASE_PARAMS = {"boundary_points": 64, "n_rings": 16, "crack_a0": 1e-3, "crack_af": 8e-3}

    #: ``wrap_stage(name, func)``, set by the traced run, wraps stage bodies.
    wrap_stage: Optional[Callable[[str, Callable], Callable]] = None

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        # A narrow band around the example's slightly square hole.
        self.params = dict(
            self.BASE_PARAMS,
            hole_power=round(rng.uniform(2.3, 2.7), 6),
            hole_aspect=round(rng.uniform(1.1, 1.3), 6),
        )
        self.work = work
        self.reference_result, self.pipeline_bytes = self._reference()

    def _workflow(self, probe: Callable[[float], None]) -> Workflow:
        def probed(func):
            return lambda io: func(_ProbeIO(io, self.PROBED_FILE, probe))

        stages = []
        for stage in durability_workflow().stages.values():
            func = probed(stage.func) if stage.name == self.PROBED_STAGE else stage.func
            if self.wrap_stage is not None:
                func = self.wrap_stage(stage.name, func)
            stages.append(Stage(stage.name, reads=stage.reads, writes=stage.writes, func=func))
        return Workflow("durability", stages)

    def _reference(self):
        """Local-files run of the same seed: RESULT.DAT and the pipeline files' total size."""
        world = self.setup(-1, coupling="local")
        try:
            result = world["runner"].run()
            if not result.ok:
                raise RuntimeError(f"local-files reference run failed: {result.errors}")
            root = world["deployment"].hosts.host(self.MACHINE).resolve("/wf/durability")
            pipeline_bytes = sum(
                (root / f).stat().st_size for f in world["plan"].workflow.pipeline_files()
            )
            return (root / self.RESULT).read_bytes(), pipeline_bytes
        finally:
            self.teardown(world)

    def setup(self, index, coupling: str = "buffer") -> dict:
        first_byte: List[float] = []
        wf = self._workflow(first_byte.append)
        placement = {s: self.MACHINE for s in self.STAGES}
        plan = plan_workflow(wf, placement, coupling={f: coupling for f in wf.pipeline_files()})
        deployment = GridDeployment([self.MACHINE], base_dir=self.work / f"it{index}").start()
        runner = RealRunner(plan, deployment=deployment, params=self.params,
                            stage_timeout=ITERATION_TIMEOUT_S)
        return {"deployment": deployment, "runner": runner, "plan": plan, "first_byte": first_byte}

    def run(self, world: dict) -> Sample:
        t0 = time.perf_counter()
        result = world["runner"].run()
        makespan = time.perf_counter() - t0
        if not result.ok:
            raise RuntimeError(f"durability stages failed: {result.errors}")
        out = world["deployment"].hosts.host(self.MACHINE).resolve(f"/wf/durability/{self.RESULT}")
        if out.read_bytes() != self.reference_result:
            raise OutputMismatch("RESULT.DAT differs from the local-files reference")
        if len(world["first_byte"]) != 1:
            raise RuntimeError("PAFEC never read PROFILE_COORD.DAT")
        return Sample(makespan, world["first_byte"][0], self.pipeline_bytes, checks=1)

    def teardown(self, world: dict) -> None:
        world["deployment"].stop()
        shutil.rmtree(world["deployment"].base_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the two 5 ms workloads share the world plumbing
# ---------------------------------------------------------------------------
def _fm(world: dict, machine: str) -> FileMultiplexer:
    return FileMultiplexer(GridContext(
        machine=machine,
        gns=LocalGnsClient(world["ns"]),
        hosts=world["hosts"],
        gridftp=world.get("gridftp"),
        buffer_locator=world.get("buffer_locator"),
        scratch_dir=world["dir"] / "scratch",
    ))


def _write_all(f, data: bytes) -> None:
    for off in range(0, len(data), CALL_BYTES):
        f.write(data[off:off + CALL_BYTES])


def _read_all(f, on_first: Optional[Callable[[], None]] = None):
    """Read to EOF in CALL_BYTES calls; returns (sha256, nbytes)."""
    digest = hashlib.sha256()
    n = 0
    while True:
        chunk = f.read(CALL_BYTES)
        if not chunk:
            return digest.hexdigest(), n
        if n == 0 and on_first is not None:
            on_first()
        digest.update(chunk)
        n += len(chunk)


class _Clock:
    """Thread-safe first-open / last-close bookkeeping for one iteration."""

    def __init__(self):
        self._lock = threading.Lock()
        self.opens: List[float] = []
        self.closes: List[float] = []
        self.first_byte: Optional[float] = None

    def mark(self, what: List[float]) -> None:
        t = time.perf_counter()
        with self._lock:
            what.append(t)

    def makespan(self) -> float:
        return max(self.closes) - min(self.opens)


class Stream5ms:
    """Paper mode 6: one legacy writer streams to one legacy reader.

    Writer on ``producer`` and reader on ``consumer`` open the same FM
    name, bound by a ``BUFFER`` GNS record, and start together.  The
    Grid Buffer server injects 5 ms one-way latency per RPC.
    """

    name = "stream-5ms"
    PATH = "/flow/stream.dat"
    PAYLOAD_BYTES = 2 * 1024 * 1024

    def __init__(self, seed: int, work: Path, latency: float = LINK_LATENCY_S):
        self.work = work
        self.latency = latency
        self.data = payload(seed, "stream", self.PAYLOAD_BYTES)
        self.sha = hashlib.sha256(self.data).hexdigest()

    def setup(self, index) -> dict:
        d = self.work / f"it{index}"
        hosts = HostRegistry(d / "hosts")
        for name in ("producer", "consumer"):
            hosts.add_host(name)
        server = GridBufferServer(cache_dir=d / "cache", simulated_latency=self.latency).start()
        ns = NameService(locate_buffer_server=lambda m: server.address)
        ns.add(GnsRecord(machine="*", path=self.PATH, mode=IOMode.BUFFER,
                         buffer=BufferEndpoint(stream=f"stream-{index}")))
        world = {"dir": d, "hosts": hosts, "server": server, "ns": ns,
                 "buffer_locator": lambda m: server.address}
        world["fms"] = {m: _fm(world, m) for m in ("producer", "consumer")}
        return world

    def run(self, world: dict) -> Sample:
        clock = _Clock()
        got: Dict[str, object] = {}
        writer_fm, reader_fm = world["fms"]["producer"], world["fms"]["consumer"]

        def writer(barrier):
            barrier.wait()
            clock.mark(clock.opens)
            f = writer_fm.open(self.PATH, "wb")
            _write_all(f, self.data)
            f.close()
            clock.mark(clock.closes)

        def reader(barrier):
            barrier.wait()
            t_open = time.perf_counter()
            clock.mark(clock.opens)
            f = reader_fm.open(self.PATH, "rb")

            def first():
                clock.first_byte = time.perf_counter() - t_open
            got["sha"], got["n"] = _read_all(f, first)
            f.close()
            clock.mark(clock.closes)

        _run_threads({"writer": writer, "reader": reader})
        makespan = clock.makespan()
        if got["sha"] != self.sha or got["n"] != len(self.data):
            raise OutputMismatch("reader sha256 differs from the streamed payload")
        return Sample(makespan, clock.first_byte, len(self.data), checks=1)

    def teardown(self, world: dict) -> None:
        for fm in world["fms"].values():
            fm.close()
        world["server"].stop()
        shutil.rmtree(world["dir"], ignore_errors=True)


class Remote5ms:
    """Paper modes 2 and 3 against GridFTP servers with 5 ms latency.

    The reader thread (on ``reader``) reads A through a ``REMOTE`` proxy,
    then B through ``COPY`` copy-in, both from ``origin-r``.  The writer
    thread (on ``writer``) writes C through a ``REMOTE`` proxy, then D
    through ``COPY`` copy-out, both to ``origin-w``.  No Grid Buffer.
    """

    name = "remote-5ms"
    FILE_BYTES = 4 * 1024 * 1024
    READS = {"/in/A": (IOMode.REMOTE, "/data/A"), "/in/B": (IOMode.COPY, "/data/B")}
    WRITES = {"/out/C": (IOMode.REMOTE, "/data/C"), "/out/D": (IOMode.COPY, "/data/D")}

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.data = {p: payload(seed, p, self.FILE_BYTES) for p in (*self.READS, *self.WRITES)}
        self.sha = {p: hashlib.sha256(b).hexdigest() for p, b in self.data.items()}

    def setup(self, index) -> dict:
        d = self.work / f"it{index}"
        hosts = HostRegistry(d / "hosts")
        for name in ("reader", "writer", "origin-r", "origin-w"):
            hosts.add_host(name)
        for path, (_mode, remote) in self.READS.items():
            src = hosts.host("origin-r").resolve(remote)
            src.parent.mkdir(parents=True, exist_ok=True)
            src.write_bytes(self.data[path])
        hosts.host("origin-w").resolve("/data").mkdir(parents=True, exist_ok=True)
        servers = {
            name: GridFtpServer(hosts.host(name).root, simulated_latency=LINK_LATENCY_S).start()
            for name in ("origin-r", "origin-w")
        }
        ns = NameService()
        for machine, origin, table in (("reader", "origin-r", self.READS),
                                       ("writer", "origin-w", self.WRITES)):
            for path, (mode, remote) in table.items():
                ns.add(GnsRecord(machine=machine, path=path, mode=mode,
                                 remote_host=origin, remote_path=remote))
        world = {"dir": d, "hosts": hosts, "servers": servers, "ns": ns,
                 "gridftp": {name: s.address for name, s in servers.items()}}
        world["fms"] = {m: _fm(world, m) for m in ("reader", "writer")}
        return world

    def run(self, world: dict) -> Sample:
        clock = _Clock()
        got: Dict[str, tuple] = {}
        reader_fm, writer_fm = world["fms"]["reader"], world["fms"]["writer"]

        def reader(barrier):
            barrier.wait()
            for i, path in enumerate(self.READS):
                t_open = time.perf_counter()
                clock.mark(clock.opens)
                f = reader_fm.open(path, "rb")

                def first(t_open=t_open):
                    clock.first_byte = time.perf_counter() - t_open
                got[path] = _read_all(f, first if i == 0 else None)
                f.close()
                clock.mark(clock.closes)

        def writer(barrier):
            barrier.wait()
            for path in self.WRITES:
                clock.mark(clock.opens)
                f = writer_fm.open(path, "wb")
                _write_all(f, self.data[path])
                f.close()
                clock.mark(clock.closes)

        _run_threads({"reader": reader, "writer": writer})
        makespan = clock.makespan()
        checks = 0
        for path in self.READS:
            if got[path] != (self.sha[path], self.FILE_BYTES):
                raise OutputMismatch(f"{path}: bytes read differ from the origin payload")
            checks += 1
        for path, (_mode, remote) in self.WRITES.items():
            if world["hosts"].host("origin-w").resolve(remote).read_bytes() != self.data[path]:
                raise OutputMismatch(f"{path}: origin bytes differ from the written payload")
            checks += 1
        return Sample(makespan, clock.first_byte, self.FILE_BYTES * len(self.data), checks)

    def teardown(self, world: dict) -> None:
        for fm in world["fms"].values():
            fm.close()
        for server in world["servers"].values():
            server.stop()
        shutil.rmtree(world["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Durability, Stream5ms, Remote5ms)}

"""Traced-run instrumentation: spans around public calls, from outside.

Nothing under ``src/`` is changed.  For the duration of one traced
iteration :class:`Recorder` replaces a fixed list of public methods
with timing wrappers and restores the originals afterwards, so the
untraced iterations run the program exactly as shipped.  Spans stay in
memory (name, layer, start, end, parent, iteration, thread, key) and
are written out as JSON lines when the run ends.

Parents: calls nested on one thread get their parent from a
thread-local stack.  Grid Buffer handlers run on the server's event
loop, where coroutines interleave, so they are recorded without a
parent and matched afterwards to the client RPC span of the same op
and stream whose interval contains them.
"""

from __future__ import annotations

import itertools
import math
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from repro import obs
from repro.core.multiplexer import FileMultiplexer, FMFile
from repro.gns.client import LocalGnsClient
from repro.gridbuffer.client import BufferWriter
from repro.gridbuffer.service import GridBufferService
from repro.transport.tcp import RpcClient

#: RPC ops whose client latency is reported per op.  ``gb.write`` and
#: ``gb.read`` join the vectored ops because the KB-sized durability
#: streams mostly use them.
RPC_OPS = ("gb.write", "gb.write_multi", "gb.read", "gb.read_multi", "gb.close_writer",
           "gb.exists", "get_block", "put_block")
#: Grid Buffer handler categories and the client ops that reach them.
HANDLER_OPS = {
    "write": ("gb.write_multi", "gb.write"),
    "read": ("gb.read_multi", "gb.read"),
    "close_writer": ("gb.close_writer",),
    "exists": ("gb.exists",),
}
#: Client ops whose client-minus-handler gap is reported.
GAP_OPS = tuple(op for op in RPC_OPS if op.startswith("gb."))

#: Program counters read around every traced iteration.
COUNTERS = (
    "fm_prefetch_rpcs_total",
    "fm_prefetch_hits_total",
    "fm_prefetch_wasted_total",
    "fm_write_flushes_total",
    "buffer_write_rpcs_total",
    "buffer_readahead_hits_total",
    "buffer_reader_waits_total",
    "buffer_writer_stalls_total",
    "buffer_flush_deadline_total",
    "gridftp_rpc_bytes_total",
    "rpc_client_calls_total",
    "rpc_retries_total",
    "rpc_client_errors_total",
    "workflow_task_queue_wait_seconds",
)


class Span(NamedTuple):
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    iteration: int
    thread: int
    key: str


def counter_totals() -> Dict[str, float]:
    """Sum of every series of each :data:`COUNTERS` family (histograms: sum)."""
    reg = obs.get_registry()
    out: Dict[str, float] = {}
    for name in COUNTERS:
        total = 0.0
        fam = reg.get(name)
        for _labels, value in (fam.series() if fam is not None else ()):
            total += value["sum"] if isinstance(value, dict) else value
        out[name] = total
    fam = reg.get("fm_ops_total")
    out["fm_buffer_reads"] = sum(
        v for labels, v in (fam.series() if fam is not None else ())
        if labels.get("op") == "read" and labels.get("mode") == "buffer"
    )
    return out


class Recorder:
    """Installs the timing wrappers for one iteration at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.iteration: Optional[int] = None
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._saved: List[tuple] = []

    # -- wrappers -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def timed(self, name: str, layer: str, fn: Callable,
              label: Optional[Callable[[tuple, dict], tuple]] = None) -> Callable:
        """``fn`` wrapped in a span; ``label(args, kwargs)`` -> (name suffix, key)."""
        rec = self

        def wrapper(*args, **kwargs):
            it = rec.iteration
            if it is None:
                return fn(*args, **kwargs)
            suffix, key = label(args, kwargs) if label else ("", "")
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append(Span(sid, name + suffix, layer, t0, t1, parent, it,
                                      threading.get_ident(), key))
        return wrapper

    def timed_handler(self, category: str, fn: Callable, is_async: bool) -> Callable:
        """A Grid Buffer service method, recorded without a stack parent."""
        rec = self
        name = f"handler:{category}"

        def record(it, t0, args):
            rec.spans.append(Span(next(rec._ids), name, "gridbuffer", t0, time.perf_counter(),
                                  None, it, threading.get_ident(), str(args[1])))

        if is_async:
            async def awrapper(*args, **kwargs):
                it, t0 = rec.iteration, time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    if it is not None:
                        record(it, t0, args)
            return awrapper

        def wrapper(*args, **kwargs):
            it, t0 = rec.iteration, time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if it is not None:
                    record(it, t0, args)
        return wrapper

    def stage_wrapper(self, stage: str, func: Callable) -> Callable:
        """Wraps one workflow stage body (used when the workflow is built)."""
        return self.timed(f"stage:{stage}", "apps", func)

    # -- install / remove -----------------------------------------------------
    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def begin(self, iteration: int) -> None:
        def rpc_label(args, kwargs):
            op = args[1]
            header = args[2] if len(args) > 2 else kwargs.get("header")
            return op, str((header or {}).get("name") or (header or {}).get("path") or "")

        def orig(owner, attr):
            return owner.__dict__[attr]

        self._patch(FileMultiplexer, "open", self.timed("fm.open", "core", orig(FileMultiplexer, "open")))
        for op in ("read", "write", "close"):
            self._patch(FMFile, op, self.timed(f"fm.{op}", "core", orig(FMFile, op)))
        for op in ("resolve", "announce"):
            self._patch(LocalGnsClient, op, self.timed(f"gns.{op}", "gns", orig(LocalGnsClient, op)))
        self._patch(BufferWriter, "close", self.timed("gb.writer_close", "gridbuffer", orig(BufferWriter, "close")))
        self._patch(RpcClient, "call", self.timed("rpc:", "transport", orig(RpcClient, "call"), rpc_label))
        for attr, category, is_async in (
            ("write", "write", False), ("write_multi", "write", False),
            ("write_async", "write", True), ("write_multi_async", "write", True),
            ("read", "read", False), ("read_async", "read", True),
            ("close_writer", "close_writer", False), ("exists", "exists", False),
        ):
            self._patch(GridBufferService, attr,
                        self.timed_handler(category, orig(GridBufferService, attr), is_async))
        self.iteration = iteration

    def end(self) -> None:
        self.iteration = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, arm_of: Dict[int, str]) -> None:
        """One ``{"iteration", "arm"}`` line per completed traced iteration, then the spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for it, arm in sorted(arm_of.items()):
                fh.write(json.dumps({"iteration": it, "arm": arm}) + "\n")
            for s in self.spans:
                if s.iteration in arm_of:
                    fh.write(json.dumps(s._asdict()) + "\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def _pct(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 when there are no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def link_handlers(spans: List[Span]) -> Dict[int, List[Span]]:
    """Children of every span: same-thread nesting plus matched handlers."""
    children: Dict[int, List[Span]] = defaultdict(list)
    clients: Dict[tuple, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
        if s.layer == "transport":
            clients[(s.iteration, s.name[len("rpc:"):], s.key)].append(s)
    for h in spans:
        if not h.name.startswith("handler:"):
            continue
        best = None
        for op in HANDLER_OPS[h.name[len("handler:"):]]:
            for c in clients.get((h.iteration, op, h.key), ()):
                if c.start <= h.start and h.end <= c.end and (best is None or c.start > best.start):
                    best = c
        if best is not None:
            children[best.sid].append(h)
    return children


def self_time(span: Span, children: Dict[int, List[Span]]) -> float:
    return (span.end - span.start) - sum(c.end - c.start for c in children.get(span.sid, ()))


def per_layer(spans: List[Span], deltas: Dict[int, Dict[str, float]],
              payload_bytes: Dict[int, int], stages: Iterable[str]) -> Dict[str, float]:
    """Per-layer metrics from the traced iterations' spans and counter deltas."""
    iterations = sorted(deltas)
    children = link_handlers(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    per_it: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.iteration in deltas:
            by_name[s.name].append(s)
            per_it[s.iteration].append(s)

    def durs(name: str, scale: float = 1.0) -> List[float]:
        return [(s.end - s.start) * scale for s in by_name.get(name, ())]

    def per_iteration(fn: Callable[[int], float]) -> float:
        return _median(fn(it) for it in iterations)

    def span_sum(it: int, name: str) -> float:
        return sum(s.end - s.start for s in per_it[it] if s.name == name)

    def span_count(it: int, name: str) -> int:
        return sum(1 for s in per_it[it] if s.name == name)

    def layer_self(it: int, layer: str) -> float:
        return sum(self_time(s, children) for s in per_it[it] if s.layer == layer)

    def delta(it: int, name: str) -> float:
        return deltas[it][name]

    def per_mb(it: int, name: str) -> float:
        return delta(it, name) / (payload_bytes[it] / 1e6)

    def total(name: str) -> float:
        return sum(d[name] for d in deltas.values())

    m: Dict[str, float] = {}
    for stage in stages:
        m[f"workflow.stage_s.{stage}"] = per_iteration(lambda it, st=stage: span_sum(it, f"stage:{st}"))
    m["workflow.task_wait_s"] = per_iteration(lambda it: delta(it, "workflow_task_queue_wait_seconds"))
    m["apps.compute_s"] = per_iteration(lambda it: layer_self(it, "apps"))

    m["core.open_ms.p50"] = _pct(durs("fm.open", 1e3), 50)
    m["core.open_ms.p99"] = _pct(durs("fm.open", 1e3), 99)
    for op in ("read", "write", "close"):
        m[f"core.{op}_s"] = per_iteration(lambda it, op=op: span_sum(it, f"fm.{op}"))
    for op in ("read", "write"):
        m[f"core.{op}_calls"] = per_iteration(lambda it, op=op: span_count(it, f"fm.{op}"))
    m["core.prefetch_rpcs"] = per_iteration(lambda it: delta(it, "fm_prefetch_rpcs_total"))
    m["core.prefetch_hits"] = per_iteration(lambda it: delta(it, "fm_prefetch_hits_total"))
    rpcs = total("fm_prefetch_rpcs_total")
    m["core.prefetch_useful_ratio"] = 1 - total("fm_prefetch_wasted_total") / rpcs if rpcs else 0.0
    m["core.write_flushes"] = per_iteration(lambda it: delta(it, "fm_write_flushes_total"))
    m["core.self_s"] = per_iteration(lambda it: layer_self(it, "core"))

    m["gns.resolve_ms.p50"] = _pct(durs("gns.resolve", 1e3), 50)
    m["gns.resolve_calls"] = per_iteration(lambda it: span_count(it, "gns.resolve"))
    m["gns.announce_ms.p50"] = _pct(durs("gns.announce", 1e3), 50)
    m["gns.self_s"] = per_iteration(lambda it: layer_self(it, "gns"))

    m["gridbuffer.write_rpcs_per_mb"] = per_iteration(lambda it: per_mb(it, "buffer_write_rpcs_total"))
    reads = total("fm_buffer_reads")
    m["gridbuffer.readahead_hit_ratio"] = total("buffer_readahead_hits_total") / reads if reads else 0.0
    m["gridbuffer.reader_waits"] = per_iteration(lambda it: delta(it, "buffer_reader_waits_total"))
    m["gridbuffer.writer_stalls"] = per_iteration(lambda it: delta(it, "buffer_writer_stalls_total"))
    m["gridbuffer.close_writer_ms.p50"] = _pct(durs("gb.writer_close", 1e3), 50)
    m["gridbuffer.flush_deadline_flushes"] = per_iteration(lambda it: delta(it, "buffer_flush_deadline_total"))
    for category in HANDLER_OPS:
        m[f"gridbuffer.handler_ms.{category}.p50"] = _pct(durs(f"handler:{category}", 1e3), 50)
    m["gridbuffer.self_s"] = per_iteration(lambda it: layer_self(it, "gridbuffer"))

    for op in RPC_OPS:
        m[f"transport.rpc_ms.{op}.p50"] = _pct(durs(f"rpc:{op}", 1e3), 50)
        m[f"transport.rpc_ms.{op}.p99"] = _pct(durs(f"rpc:{op}", 1e3), 99)
    for op in GAP_OPS:
        gaps = [self_time(c, children) * 1e3 for c in by_name.get(f"rpc:{op}", ())
                if children.get(c.sid)]
        m[f"transport.rpc_gap_ms.{op}.p50"] = _pct(gaps, 50)
    m["transport.rpc_calls_per_mb"] = per_iteration(lambda it: per_mb(it, "rpc_client_calls_total"))
    m["transport.gridftp_bytes"] = per_iteration(lambda it: delta(it, "gridftp_rpc_bytes_total"))
    m["transport.self_s"] = per_iteration(lambda it: layer_self(it, "transport"))
    return m

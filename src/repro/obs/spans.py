"""Hierarchical span tracing with cross-thread context propagation.

The paper's FM sat on an interception layer precisely because seeing
*when* each IO call happens is as valuable as counting them.  This
module supplies that timeline: nested spans (``span("workflow")`` →
``span("task")`` → per-IO events) recorded as JSON-lines, one record
per finished span, cheap enough to leave compiled in.

Design points:

* **thread-local stack** — ``tracer.span(...)`` nests under whatever
  span is active on the current thread.
* **explicit propagation** — a runner spawning worker threads captures
  :meth:`Tracer.current_context` and re-attaches it inside the worker
  with :meth:`Tracer.attach`, so task spans parent under the workflow
  span even though they finish on different threads.
* **sinks** — anything with ``write(dict)``; :class:`JsonLinesSink`
  persists to disk for ``python -m repro.obs.report``,
  :class:`MemorySink` collects in-memory for tests.  With no sink
  configured, spans still nest (context is maintained) but nothing is
  written and per-IO :meth:`Tracer.event` calls are no-ops.
* **deferred nested writes** — a span that closes inside another span
  still open on the same thread is written when that outermost span
  closes, after its end is stamped.  A sink write is file IO that
  yields the GIL; between two sibling spans it would fall in no span,
  and under GIL contention getting the lock back costs up to a whole
  switch interval (5 ms) that the critical-path sweep cannot
  attribute.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, NamedTuple, Optional, TextIO, Union

__all__ = [
    "SpanContext",
    "Span",
    "Tracer",
    "JsonLinesSink",
    "MemorySink",
    "get_tracer",
    "context_from_wire",
]

_ids = itertools.count(1)
_id_lock = threading.Lock()

#: Distinguishes this process's span ids from every other process in a
#: merged multi-process trace.  A per-process counter alone would
#: collide the moment two trace files are merged, which would corrupt
#: the parent links the distributed report is built on.
_PROC_NONCE = os.urandom(4).hex()


def _new_id() -> str:
    with _id_lock:
        return f"{_PROC_NONCE}-{next(_ids):x}"


def _default_proc() -> str:
    """This process's clock-domain label in merged traces.

    ``REPRO_OBS_PROC`` overrides for readable labels ("gridftp-1");
    the default is unique per (host, pid) so records from different
    processes never share a monotonic-clock domain by accident.
    """
    label = os.environ.get("REPRO_OBS_PROC")
    if label:
        return label
    try:
        host = socket.gethostname()
    except OSError:  # pragma: no cover - hostname lookup failure
        host = "localhost"
    return f"{host}:{os.getpid()}"


class SpanContext(NamedTuple):
    """The (trace, span) coordinates needed to parent remote work."""

    trace_id: str
    span_id: str

    def to_wire(self) -> List[str]:
        """Encoding carried in the RPC ``_trace`` header field."""
        return [self.trace_id, self.span_id]


def context_from_wire(value: Any) -> Optional["SpanContext"]:
    """Parse a ``_trace`` header field; None for absent/malformed.

    Malformed values are dropped rather than raised: a trace header
    must never be able to fail an otherwise-valid RPC.
    """
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(part, str) and part for part in value)
    ):
        return SpanContext(value[0], value[1])
    return None


class Span:
    """One timed, named, attributed interval in a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs", "start", "end", "thread")

    def __init__(self, name: str, trace_id: str, span_id: str, parent_id: Optional[str],
                 attrs: Dict[str, Any], start: float):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = start
        self.end: Optional[float] = None
        self.thread = threading.current_thread().name

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes mid-span."""
        self.attrs.update(attrs)
        return self

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "dur": (self.end - self.start) if self.end is not None else None,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class MemorySink:
    """In-memory sink for tests; records are plain dicts."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def write(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Finished span records, optionally filtered by span name."""
        with self._lock:
            return [
                r for r in self.records
                if r.get("type") == "span" and (name is None or r.get("name") == name)
            ]

    def close(self) -> None:  # symmetry with JsonLinesSink
        pass


class JsonLinesSink:
    """Appends one JSON object per line to a file (or text stream)."""

    def __init__(self, target: Union[str, Path, TextIO]):
        self._lock = threading.Lock()
        if hasattr(target, "write"):
            self._fh: TextIO = target  # type: ignore[assignment]
            self._own = False
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "a", encoding="utf-8")
            self._own = True

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._own:
                self._fh.close()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Frame(NamedTuple):
    context: SpanContext
    virtual: bool  # True for attach()ed remote parents (no local Span)


class Tracer:
    """Produces nested spans and point events; writes them to a sink."""

    #: Finished-span records retained for the ``_obs.spans_tail`` op.
    TAIL_SPANS = 256

    def __init__(self, sink: Optional[Any] = None, clock=time.perf_counter):
        self.sink = sink
        self._clock = clock
        self._tls = threading.local()
        #: Clock-domain label stamped onto every record (multi-process merge).
        self.proc = _default_proc()
        #: Ring of the most recent finished-span records, kept whenever a
        #: sink is configured so a live peer can answer ``_obs.spans_tail``
        #: without touching the trace file.
        self.tail: Deque[Dict[str, Any]] = deque(maxlen=self.TAIL_SPANS)

    # -- configuration -------------------------------------------------------
    def configure(self, sink: Optional[Any]) -> Optional[Any]:
        """Swap the sink; returns the previous one."""
        prior, self.sink = self.sink, sink
        return prior

    # -- context -------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _held(self) -> List[Span]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def current_context(self) -> Optional[SpanContext]:
        """The innermost active span context on this thread (if any)."""
        stack = self._stack()
        return stack[-1].context if stack else None

    @contextmanager
    def attach(self, context: Optional[SpanContext]) -> Iterator[None]:
        """Adopt ``context`` as this thread's current parent span.

        The cross-thread propagation primitive: a worker thread wraps
        its body in ``attach(ctx)`` so spans it opens parent under the
        spawning thread's span.  ``None`` is accepted and is a no-op,
        so callers need not special-case "tracing not active".
        """
        if context is None:
            yield
            return
        stack = self._stack()
        stack.append(_Frame(context, virtual=True))
        try:
            yield
        finally:
            stack.pop()

    # -- spans ----------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[SpanContext] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a nested span; emitted to the sink when the block exits."""
        stack = self._stack()
        effective_parent = parent if parent is not None else (
            stack[-1].context if stack else None
        )
        trace_id = effective_parent.trace_id if effective_parent else _new_id()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=effective_parent.span_id if effective_parent else None,
            attrs=dict(attrs),
            start=self._clock(),
        )
        stack.append(_Frame(span.context, virtual=False))
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            span.end = self._clock()
            stack.pop()
            if self.sink is not None:
                held = self._held()
                held.append(span)
                if not stack or stack[-1].virtual:
                    self._tls.held = []
                    for done in held:
                        self._emit(done)

    # -- stack-free spans ------------------------------------------------------
    def start_span(
        self, name: str, parent: Optional[SpanContext] = None, **attrs: Any
    ) -> Span:
        """Open a span WITHOUT touching the thread-local stack.

        The async engine needs this: a native-coroutine handler's span
        brackets awaits, and other coroutines interleave on the same
        loop thread between them — a stack push there would be popped
        by the wrong coroutine.  Pair with :meth:`finish_span`.
        """
        trace_id = parent.trace_id if parent is not None else _new_id()
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
            start=self._clock(),
        )

    def finish_span(self, span: Span, error: Optional[str] = None) -> None:
        """Close and emit a span opened with :meth:`start_span`."""
        span.end = self._clock()
        if error is not None:
            span.attrs.setdefault("error", error)
        if self.sink is not None:
            self._emit(span)

    def _emit(self, span: Span) -> None:
        record = span.to_record()
        record["proc"] = self.proc
        self.sink.write(record)
        self.tail.append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration point record under the current span.

        No-op without a sink, so per-IO call sites can stay compiled
        in: the cost when idle is one attribute load and a comparison.
        """
        if self.sink is None:
            return
        now = self._clock()
        ctx = self.current_context()
        self.sink.write(
            {
                "type": "event",
                "name": name,
                "trace": ctx.trace_id if ctx else None,
                "parent": ctx.span_id if ctx else None,
                "time": now,
                "thread": threading.current_thread().name,
                "proc": self.proc,
                "attrs": attrs,
            }
        )

    def write_metrics(self, registry) -> None:
        """Embed a metrics snapshot record into the trace stream."""
        if self.sink is None:
            return
        self.sink.write(
            {
                "type": "metrics",
                "time": self._clock(),
                "proc": self.proc,
                "snapshot": registry.snapshot(),
            }
        )


#: Process-wide default tracer, analogous to the default registry.
_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default :class:`Tracer`."""
    return _DEFAULT_TRACER

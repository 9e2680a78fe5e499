"""Built-in ops plane: ``_obs.*`` handlers on every RPC server.

Allcock et al.'s GridFTP embeds its management plane in the transfer
protocol itself; we do the same — every :class:`RpcServer`
auto-registers three read-only ops at construction (reserved
``_``-prefixed names that ride the normal RPC machinery, no second
port, no second protocol):

* ``_obs.health`` — liveness + identity: proc label, pid, uptime,
  registered op count, plus whatever the owning service exposes via a
  ``health_info()`` callable on the server object.
* ``_obs.metrics`` — the full default-registry snapshot as a JSON
  payload (``format: "text"`` switches to Prometheus exposition).
* ``_obs.spans_tail`` — the most recent finished-span records from the
  tracer's in-memory ring, as a JSONL payload, so a live peer can be
  inspected without access to its trace file.

``python -m repro.obs.top`` polls these across a fleet.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Tuple

from . import get_registry, get_tracer

__all__ = ["install", "OPS"]

#: Ops installed on every server (all read-only, safe to retry).
OPS = ("_obs.health", "_obs.metrics", "_obs.spans_tail")


def install(server: Any) -> None:
    """Register the ``_obs.*`` ops on ``server``.

    The handlers run inline on the server's loop: they are lock-brief
    and allocation-light, and staying off the executor means health
    answers even when every worker thread is busy — exactly when you
    ask.
    """
    started = time.monotonic()

    def health(header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        info: Dict[str, Any] = {
            "status": "ok",
            "proc": get_tracer().proc,
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - started,
            "peer_name": getattr(server, "peer_name", ""),
            "ops": sorted(server._handlers),
        }
        extra = getattr(server, "health_info", None)
        if callable(extra):
            try:
                info["service"] = extra()
            except Exception as exc:  # noqa: BLE001 - health must answer regardless
                info["service"] = {"error": f"{type(exc).__name__}: {exc}"}
        return info, b""

    def metrics(header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        registry = get_registry()
        if header.get("format") == "text":
            return {"format": "text"}, registry.render_text().encode("utf-8")
        body = json.dumps(registry.snapshot(), separators=(",", ":"), default=str)
        return {"format": "json"}, body.encode("utf-8")

    def spans_tail(header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        tracer = get_tracer()
        records = list(tracer.tail)
        limit = header.get("limit")
        if isinstance(limit, int) and limit > 0:
            records = records[-limit:]
        body = "\n".join(
            json.dumps(r, separators=(",", ":"), default=str) for r in records
        )
        return {"count": len(records)}, body.encode("utf-8")

    handlers = {"_obs.health": health, "_obs.metrics": metrics, "_obs.spans_tail": spans_tail}
    for op, fn in handlers.items():
        server.register(op, fn, inline=True)

"""Render JSON-lines traces into human-readable timelines and tables.

``python -m repro.obs.report TRACE.jsonl [TRACE2.jsonl ...]`` prints:

* a **per-task timeline** — one ASCII bar per ``task`` span, scaled to
  the workflow's wall-clock, so pipelined (overlapping) stages are
  visually distinct from sequential ones;
* a **per-peer link table** — built from the latest embedded metrics
  snapshot (``gridftp_rpc_seconds`` / ``gridftp_rpc_bytes_total``),
  the measured equivalents of the paper's Table 1 link numbers;
* a **metrics summary** — the non-zero counter series, so a run's IO
  behaviour (modes chosen, cache hits, bytes moved) reads at a glance;
* with ``--critical-path``, a **makespan breakdown** — what fraction
  of the workflow's wall-clock went to buffer-wait vs transport vs
  queue-wait vs compute.

Given several trace files (one per process), the report **merges**
them into a single workflow-wide trace first.  Every process stamps
its records with its own monotonic clock, so merging requires clock
alignment: each remote RPC appears as a span on *both* sides of the
wire (``rpc.client`` in the caller, ``rpc.server`` in the callee,
linked by the propagated ``_trace`` parent id), and assuming the two
network legs are symmetric, the difference of the two spans' midpoints
is the clock offset between the processes — NTP's estimator applied to
our own traffic.  Offsets compose along the RPC graph (BFS from the
process owning the workflow root), so a process only ever called
through an intermediary still lands in the common timebase.

The module doubles as a library: :func:`load_trace`,
:func:`merge_traces`, :func:`clock_offsets`, :func:`critical_path` and
the ``render_*`` helpers each return plain values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "load_trace",
    "merge_traces",
    "clock_offsets",
    "critical_path",
    "render_timeline",
    "render_link_table",
    "render_counters",
    "render_critical_path",
    "render_clock_offsets",
    "render_report",
    "main",
]


def load_trace(path: Path) -> List[Dict[str, Any]]:
    """Parse a JSON-lines trace file, skipping malformed lines."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


# -- multi-process merge ------------------------------------------------------

def clock_offsets(records: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-process clock offsets into a common (reference) timebase.

    Every remote RPC yields one offset sample: the ``rpc.server`` span
    parented under an ``rpc.client`` span from another process covers
    the same real-time interval minus two (assumed symmetric) network
    legs, so ``client_midpoint - server_midpoint`` estimates the clock
    difference.  The median over all samples per process pair rejects
    outliers (retries, scheduling noise); offsets then compose by BFS
    over the process graph from the reference process — the one owning
    the workflow root span.  Processes with no RPC link to the
    reference keep offset 0.0 (their records merge unaligned).
    """
    spans = [
        r for r in records
        if r.get("type") == "span" and r.get("end") is not None and r.get("proc")
    ]
    by_id = {s["span"]: s for s in spans if s.get("span")}
    samples: Dict[Tuple[str, str], List[float]] = {}
    for s in spans:
        if s.get("name") != "rpc.server":
            continue
        caller = by_id.get(s.get("parent"))
        if caller is None or caller.get("name") != "rpc.client":
            continue
        pa, pb = caller["proc"], s["proc"]
        if pa == pb:
            continue
        offset = (caller["start"] + caller["end"]) / 2 - (s["start"] + s["end"]) / 2
        samples.setdefault((pa, pb), []).append(offset)

    def _median(values: List[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    edges: Dict[Tuple[str, str], float] = {
        pair: _median(vals) for pair, vals in samples.items()
    }
    procs = {s["proc"] for s in spans}
    reference = None
    for s in spans:
        if s.get("name") == "workflow":
            reference = s["proc"]
            break
    if reference is None:
        roots = [s for s in spans if s.get("parent") is None]
        anchor = min(roots or spans, key=lambda s: s["start"], default=None)
        reference = anchor["proc"] if anchor else None
    if reference is None:
        return {}

    # offsets[p] rebased so adding it to p's timestamps lands them in
    # the reference clock domain.
    offsets: Dict[str, float] = {reference: 0.0}
    frontier = [reference]
    while frontier:
        here = frontier.pop()
        for (pa, pb), off in edges.items():
            # t_in_pa = t_in_pb + off  (off = client_mid - server_mid)
            if pa == here and pb not in offsets:
                offsets[pb] = offsets[pa] + off
                frontier.append(pb)
            elif pb == here and pa not in offsets:
                offsets[pa] = offsets[pb] - off
                frontier.append(pa)
    for proc in procs:
        offsets.setdefault(proc, 0.0)
    return offsets


def merge_traces(
    traces: Sequence[Sequence[Dict[str, Any]]],
) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
    """Merge per-process traces into one clock-aligned record list.

    Records missing a ``proc`` stamp (pre-distributed-tracing files)
    are grouped per input file so they at least share a clock domain.
    Returns ``(records, offsets)`` with every ``start``/``end``/
    ``time`` rebased into the reference process's clock.
    """
    records: List[Dict[str, Any]] = []
    for index, trace in enumerate(traces):
        for record in trace:
            if not record.get("proc"):
                record = dict(record)
                record["proc"] = f"file:{index}"
            records.append(record)
    offsets = clock_offsets(records)
    merged: List[Dict[str, Any]] = []
    for record in records:
        offset = offsets.get(record.get("proc", ""), 0.0)
        if offset:
            record = dict(record)
            for key in ("start", "end", "time"):
                if isinstance(record.get(key), (int, float)):
                    record[key] = record[key] + offset
        merged.append(record)
    merged.sort(key=lambda r: r.get("start", r.get("time", 0.0)) or 0.0)
    return merged, offsets


def _task_label(span: Dict[str, Any]) -> str:
    attrs = span.get("attrs") or {}
    return str(attrs.get("task") or attrs.get("stage") or span.get("name", "?"))


def render_timeline(records: Sequence[Dict[str, Any]], width: int = 60) -> str:
    """ASCII Gantt of the trace's ``task`` spans (fallback: all spans)."""
    spans = [
        r for r in records
        if r.get("type") == "span" and r.get("end") is not None
    ]
    tasks = [s for s in spans if s.get("name") == "task"] or spans
    if not tasks:
        return "(no finished spans in trace)\n"
    t0 = min(s["start"] for s in tasks)
    t1 = max(s["end"] for s in tasks)
    total = max(t1 - t0, 1e-9)
    label_w = max(len(_task_label(s)) for s in tasks)
    workflows = {
        str((r.get("attrs") or {}).get("workflow"))
        for r in records
        if r.get("type") == "span" and r.get("name") == "workflow"
    } - {"None"}
    title = "Per-task timeline"
    if workflows:
        title += f" (workflow {', '.join(sorted(workflows))})"
    lines = [f"{title} — {total:.3f}s total"]
    for span in sorted(tasks, key=lambda s: (s["start"], _task_label(s))):
        begin = int(round((span["start"] - t0) / total * width))
        length = max(1, int(round((span["end"] - span["start"]) / total * width)))
        begin = min(begin, width - 1)
        length = min(length, width - begin)
        bar = " " * begin + "#" * length + " " * (width - begin - length)
        lines.append(
            f"{_task_label(span):<{label_w}} |{bar}| "
            f"{span['start'] - t0:8.3f}s → {span['end'] - t0:8.3f}s"
        )
    return "\n".join(lines) + "\n"


def _latest_snapshot(records: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    snap = None
    for record in records:
        if record.get("type") == "metrics" and isinstance(record.get("snapshot"), dict):
            snap = record["snapshot"]
    return snap


def render_link_table(snapshot: Optional[Dict[str, Any]]) -> str:
    """Per-peer RPC table from ``gridftp_rpc_*`` series in a snapshot."""
    if not snapshot:
        return "(no metrics snapshot embedded in trace)\n"
    seconds = snapshot.get("gridftp_rpc_seconds", {}).get("series", [])
    nbytes = snapshot.get("gridftp_rpc_bytes_total", {}).get("series", [])
    peers: Dict[str, Dict[str, float]] = {}
    for series in seconds:
        peer = series["labels"].get("peer", "?")
        entry = peers.setdefault(peer, {"ops": 0.0, "seconds": 0.0, "bytes": 0.0})
        entry["ops"] += series["value"]["count"]
        entry["seconds"] += series["value"]["sum"]
    for series in nbytes:
        peer = series["labels"].get("peer", "?")
        entry = peers.setdefault(peer, {"ops": 0.0, "seconds": 0.0, "bytes": 0.0})
        entry["bytes"] += series["value"]
    if not peers:
        return "(no gridftp_rpc_* series in snapshot)\n"
    lines = [
        "Per-peer link table (measured)",
        f"{'peer':<16} {'rpcs':>8} {'bytes':>12} {'avg ms':>8} {'MiB/s':>8}",
    ]
    for peer in sorted(peers):
        entry = peers[peer]
        avg_ms = entry["seconds"] / entry["ops"] * 1e3 if entry["ops"] else 0.0
        mibps = entry["bytes"] / entry["seconds"] / (1 << 20) if entry["seconds"] > 0 else 0.0
        lines.append(
            f"{peer:<16} {int(entry['ops']):>8} {int(entry['bytes']):>12} "
            f"{avg_ms:>8.2f} {mibps:>8.2f}"
        )
    return "\n".join(lines) + "\n"


def render_counters(snapshot: Optional[Dict[str, Any]], limit: int = 40) -> str:
    """Non-zero counter series from a snapshot, one per line."""
    if not snapshot:
        return ""
    rows: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family.get("type") != "counter":
            continue
        for series in family.get("series", []):
            if not series["value"]:
                continue
            labels = series["labels"]
            label_txt = (
                "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}" if labels else ""
            )
            rows.append(f"{name}{label_txt} = {series['value']:g}")
    if not rows:
        return ""
    shown = rows[:limit]
    out = ["Counters (non-zero)"] + shown
    if len(rows) > limit:
        out.append(f"... and {len(rows) - limit} more")
    return "\n".join(out) + "\n"


# -- critical path ------------------------------------------------------------

#: Category priority for the makespan sweep: when intervals overlap,
#: the most specific explanation wins — time a gb op spent inside the
#: buffer service is buffer-wait even though an rpc.client span (and a
#: task span) covers the same instant.  ``fm.close`` (FM teardown:
#: closing pooled connections, joining IO threads) is transport.
#: ``remap`` (a live GNS-driven stream migration pausing a reader
#: while it reopens on a new binding) outranks everything: the RPCs it
#: issues are the migration's cost, not ordinary transport.
_CATEGORY_PRIORITY = ("remap", "buffer-wait", "transport", "queue-wait", "compute")


def _categorise(span: Dict[str, Any]) -> Optional[str]:
    name = span.get("name")
    if name == "remap":
        return "remap"
    if name == "rpc.server":
        op = str((span.get("attrs") or {}).get("op", ""))
        return "buffer-wait" if op.startswith("gb.") else "transport"
    if name in ("rpc.client", "fm.close"):
        return "transport"
    if name == "task.wait":
        return "queue-wait"
    if name == "task":
        return "compute"
    return None


def critical_path(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Attribute the workflow's makespan to activity categories.

    A priority interval sweep over the (clock-aligned) spans: at every
    instant inside the root span's window the highest-priority active
    category claims the time, so overlapping evidence (a task span
    containing an rpc.client span containing the matching rpc.server
    span) is counted once, as its most specific cause.  Returns the
    per-category seconds, the makespan, and the attributed fraction.
    """
    spans = [
        r for r in records if r.get("type") == "span" and r.get("end") is not None
    ]
    root = next((s for s in spans if s.get("name") == "workflow"), None)
    if root is None:
        roots = [s for s in spans if s.get("parent") is None]
        root = max(roots or spans, key=lambda s: s["end"] - s["start"], default=None)
    if root is None:
        return {"makespan": 0.0, "categories": {}, "attributed": 0.0, "coverage": 0.0}
    t0, t1 = root["start"], root["end"]
    makespan = max(t1 - t0, 0.0)
    rank = {c: i for i, c in enumerate(_CATEGORY_PRIORITY)}
    events: List[Tuple[float, int, int]] = []  # (time, +1/-1, category rank)
    for span in spans:
        category = _categorise(span)
        if category is None:
            continue
        begin, end = max(span["start"], t0), min(span["end"], t1)
        if end <= begin:
            continue
        events.append((begin, 1, rank[category]))
        events.append((end, -1, rank[category]))
    events.sort(key=lambda e: (e[0], -e[1]))
    totals = {c: 0.0 for c in _CATEGORY_PRIORITY}
    active = [0] * len(_CATEGORY_PRIORITY)
    last = t0
    for when, delta, r in events:
        if when > last:
            for i, n in enumerate(active):
                if n > 0:
                    totals[_CATEGORY_PRIORITY[i]] += when - last
                    break
            last = when
        active[r] += delta
    attributed = sum(totals.values())
    return {
        "makespan": makespan,
        "categories": totals,
        "attributed": attributed,
        "coverage": (attributed / makespan) if makespan > 0 else 0.0,
    }


def render_critical_path(records: Sequence[Dict[str, Any]]) -> str:
    """Human-readable makespan breakdown table."""
    result = critical_path(records)
    makespan = result["makespan"]
    if makespan <= 0:
        return "(no workflow root span; cannot attribute makespan)\n"
    lines = [f"Critical-path breakdown — {makespan:.3f}s makespan"]
    for category in _CATEGORY_PRIORITY:
        seconds = result["categories"][category]
        lines.append(
            f"{category:<12} {seconds:>9.3f}s  {seconds / makespan * 100:5.1f}%"
        )
    other = makespan - result["attributed"]
    lines.append(f"{'other':<12} {other:>9.3f}s  {other / makespan * 100:5.1f}%")
    lines.append(f"attributed: {result['coverage'] * 100:.1f}% of makespan")
    return "\n".join(lines) + "\n"


def render_clock_offsets(offsets: Dict[str, float]) -> str:
    """Per-process clock offsets used by a merged report."""
    if len(offsets) <= 1:
        return ""
    lines = ["Clock alignment (offset into reference timebase)"]
    for proc in sorted(offsets):
        lines.append(f"{proc:<24} {offsets[proc]:+12.6f}s")
    return "\n".join(lines) + "\n"


def render_report(
    records: Sequence[Dict[str, Any]],
    width: int = 60,
    with_critical_path: bool = False,
) -> str:
    """The full report: timeline + link table + counter summary."""
    snapshot = _latest_snapshot(records)
    parts = [render_timeline(records, width=width), render_link_table(snapshot)]
    if with_critical_path:
        parts.append(render_critical_path(records))
    counters = render_counters(snapshot)
    if counters:
        parts.append(counters)
    return "\n".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.obs.report TRACE.jsonl``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a repro.obs JSON-lines trace into timelines and link tables.",
    )
    parser.add_argument(
        "trace", type=Path, nargs="+",
        help="JSON-lines trace file(s); several are clock-aligned and merged",
    )
    parser.add_argument("--width", type=int, default=60, help="timeline bar width")
    parser.add_argument(
        "--critical-path", action="store_true",
        help="attribute the makespan to buffer-wait/transport/queue-wait/compute",
    )
    args = parser.parse_args(argv)
    for path in args.trace:
        if not path.exists():
            print(f"trace file not found: {path}", file=sys.stderr)
            return 2
    records, offsets = merge_traces([load_trace(path) for path in args.trace])
    if len(args.trace) > 1:
        sys.stdout.write(render_clock_offsets(offsets) + "\n")
    sys.stdout.write(
        render_report(records, width=args.width, with_critical_path=args.critical_path)
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

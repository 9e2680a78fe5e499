"""A/B the Grid Buffer fast path against the legacy per-block path.

One writer streams a file through a Grid Buffer server to 1 or 4
readers over a link with injected latency (0/1/5/20 ms one-way,
applied as a full round trip per RPC by the server).  Two arms per
cell:

* **legacy** — PR 1 behaviour: one ``gb.write`` per WRITE call, one
  ``gb.read`` per READ call, no read-ahead, no shared cache.
* **fast** — PR 3 behaviour: coalesced vectored writes
  (``gb.write_multi`` behind the bounded flush deadline), adaptive
  windowed read-ahead (``gb.read_multi``), and — for the broadcast
  cell — the shared per-process block cache with ``gb.consume_multi`` acks.

The paper's crossover argument (Section 5) is that buffered streaming
wins exactly when round trips dominate; the fast path widens that win
by collapsing round trips, so the speedup must grow with latency.
Asserted: >= 2x end-to-end streaming speedup on the 5 ms link, and
4-reader broadcast costs no more per byte *served* than 1-reader.

Emits ``BENCH_gridbuffer.json`` at the repo root; run with ``--obs``
to embed a metrics snapshot (RPC counts, read-ahead hits, shared-cache
hits) alongside the timings.
"""

import hashlib
import json
import threading
import time
from pathlib import Path

import pytest

from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.server import GridBufferServer

BLOCK = 4096                      # legacy application write/read size
N_BLOCKS = 64
FILE_BYTES = BLOCK * N_BLOCKS     # 256 KiB per stream
LATENCIES_MS = (0.0, 1.0, 5.0, 20.0)
READER_COUNTS = (1, 4)
MIN_SPEEDUP_AT_5MS = 2.0


def _payload() -> bytes:
    return bytes((i * 31) % 256 for i in range(FILE_BYTES))


def _run_stream(tmp_path, latency_s: float, n_readers: int, fast: bool) -> dict:
    """One writer -> n readers through a fresh server; returns timings."""
    data = _payload()
    digest = hashlib.sha256(data).hexdigest()
    stream = f"bench-{int(latency_s * 1e6)}-{n_readers}-{'fast' if fast else 'legacy'}"
    errors: list = []

    with GridBufferServer(
        cache_dir=tmp_path, simulated_latency=latency_s
    ) as server:
        host, port = server.address
        client = GridBufferClient(host, port, timeout=60.0)
        try:
            # Register every reader before the writer starts so
            # delete-on-read GC sees the full audience from block one.
            client.create_stream(stream, n_readers=n_readers)
            readers = [
                client.open_reader(
                    stream,
                    reader_id=f"r{i}",
                    read_ahead=fast,
                    read_ahead_depth=4,
                    shared_cache=fast and n_readers > 1,
                )
                for i in range(n_readers)
            ]

            def write_all():
                try:
                    w = client.open_writer(
                        stream,
                        n_readers=n_readers,
                        coalesce_bytes=BLOCK * 16 if fast else 0,
                    )
                    for off in range(0, FILE_BYTES, BLOCK):
                        w.write(data[off : off + BLOCK])
                    w.close()
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            def read_all(reader):
                try:
                    h = hashlib.sha256()
                    got = 0
                    while True:
                        chunk = reader.read(BLOCK)
                        if not chunk:
                            break
                        h.update(chunk)
                        got += len(chunk)
                    assert got == FILE_BYTES, f"short read: {got}"
                    assert h.hexdigest() == digest, "corrupted stream"
                    reader.close()
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=write_all)] + [
                threading.Thread(target=read_all, args=(r,)) for r in readers
            ]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - t0
        finally:
            client.close()

    if errors:
        raise errors[0]
    served = FILE_BYTES * n_readers
    return {
        "latency_ms": latency_s * 1e3,
        "readers": n_readers,
        "arm": "fast" if fast else "legacy",
        "elapsed_s": round(elapsed, 5),
        "bytes_served": served,
        "mb_per_s": round(served / elapsed / 1e6, 3),
    }


@pytest.mark.slow
def test_gridbuffer_fastpath_ab(tmp_path, obs_snapshot):
    cells = []
    for latency_ms in LATENCIES_MS:
        for n_readers in READER_COUNTS:
            legacy = _run_stream(tmp_path, latency_ms / 1e3, n_readers, fast=False)
            fast = _run_stream(tmp_path, latency_ms / 1e3, n_readers, fast=True)
            speedup = legacy["elapsed_s"] / fast["elapsed_s"]
            cells.append(
                {
                    "latency_ms": latency_ms,
                    "readers": n_readers,
                    "legacy": legacy,
                    "fast": fast,
                    "speedup": round(speedup, 2),
                }
            )
            print(
                f"lat={latency_ms:>4.0f}ms readers={n_readers}: "
                f"legacy {legacy['elapsed_s'] * 1e3:8.1f}ms "
                f"fast {fast['elapsed_s'] * 1e3:8.1f}ms "
                f"speedup {speedup:5.2f}x"
            )

    by_cell = {(c["latency_ms"], c["readers"]): c for c in cells}

    # Acceptance 1: the vectored path collapses round trips — >= 2x
    # end-to-end streaming on the 5 ms link, single reader.
    cell_5ms = by_cell[(5.0, 1)]
    assert cell_5ms["speedup"] >= MIN_SPEEDUP_AT_5MS, (
        f"fast path only {cell_5ms['speedup']:.2f}x over legacy at 5ms "
        f"(need >= {MIN_SPEEDUP_AT_5MS}x)"
    )

    # Acceptance 2: broadcast scales — 4 readers serve 4x the bytes for
    # no more than 4x the single-reader wall time (shared cache +
    # consume acks should do much better; this is the floor).
    f1 = by_cell[(5.0, 1)]["fast"]
    f4 = by_cell[(5.0, 4)]["fast"]
    per_byte_1 = f1["elapsed_s"] / f1["bytes_served"]
    per_byte_4 = f4["elapsed_s"] / f4["bytes_served"]
    assert per_byte_4 <= per_byte_1 * 1.25, (
        f"4-reader broadcast costs {per_byte_4 / per_byte_1:.2f}x per byte "
        "served vs 1 reader (must stay <= 1.25x)"
    )

    out = {
        "bench": "gridbuffer_fastpath_ab",
        "block_size": BLOCK,
        "file_bytes": FILE_BYTES,
        "latencies_ms": list(LATENCIES_MS),
        "reader_counts": list(READER_COUNTS),
        "min_speedup_at_5ms": MIN_SPEEDUP_AT_5MS,
        "cells": cells,
    }
    if obs_snapshot is not None:
        out["metrics"] = obs_snapshot()
    (Path(__file__).resolve().parents[1] / "BENCH_gridbuffer.json").write_text(
        json.dumps(out, indent=2) + "\n"
    )

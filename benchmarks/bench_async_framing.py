"""A/B the two RPC clients against the one async Grid Buffer server.

Three experiments, all over real TCP on localhost:

* **small-op sweep (0 ms and 5 ms)** — concurrent 4 KiB ``gb.write``
  calls at 1/16/64 in-flight requests, each arm driven the way that
  client is built to be driven.  Arm *sync*: the pooled blocking
  ``RpcClient`` every service client uses — one pooled connection and
  one OS thread per in-flight op.  Arm *async*: ONE ``AsyncRpcClient``
  that pipelines every in-flight op over a single connection (strict
  FIFO replies make this safe).  Both arms talk to the same server and
  send the same frames (binary, CRC trailer), so the sweep isolates
  the client concurrency model.  Cells are medians over alternating
  trials — single runs on a small box swing +-30%.  The depth-1 cells
  are also reported as microseconds per call.
* **streaming at 5 ms** — one writer streams 256 KiB to one read-ahead
  reader through ``GridBufferClient`` (the sync arm's client), the
  path mode 6 of the workflow uses.
* **reader fan-in** — N readers (512 full / 128 quick) all issue a
  blocking ``gb.read`` on one async loop *before* any byte exists.  A
  thread-per-connection server would park one thread each; the async
  server must hold the process thread count flat while all N wait,
  then deliver everyone from a single write.

Acceptance (full mode): async >= 2x sync ops/s at 0 ms at the top
pipeline width (64 in-flight ops; the JSON shows per-width ratios so
the scaling story stays visible), and the fan-in run completes with a
flat server thread count.  ``--quick`` (the CI smoke mode) shrinks the
op counts and only requires the async arm to not be *slower* at 0 ms.

Emits ``BENCH_async_framing.json`` at the repo root, carrying forward
its ``historical_legacy`` key: the cells of the retired threaded-server
+ JSON-client arm, kept as a baseline.  Also runnable via pytest
(``pytest benchmarks/bench_async_framing.py``).
"""

import argparse
import asyncio
import hashlib
import json
import statistics
import threading
import time
from pathlib import Path

from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.protocol import OP_READ, OP_WRITE
from repro.gridbuffer.server import GridBufferServer
from repro.transport.aio import AsyncRpcClient
from repro.transport.tcp import RpcClient

BLOCK = 4096
CONCURRENCY = (1, 16, 64)
LATENCIES_MS = (0.0, 5.0)
MIN_SPEEDUP_AT_0MS = 2.0       # full-mode floor
MIN_QUICK_RATIO = 1.0          # CI smoke: never slower
STREAM_BYTES = 256 * 1024
ARMS = ("sync", "async")


# ---------------------------------------------------------------------------
# Experiment 1: small-op throughput sweep
# ---------------------------------------------------------------------------


def _sync_cell(total_ops: int, latency_ms: float, width: int) -> float:
    """ops/s for the pooled sync client: one pooled connection and one
    OS thread per in-flight op."""
    payload = b"w" * BLOCK
    with GridBufferServer(simulated_latency=latency_ms / 1e3) as server:
        rpc = RpcClient(*server.address, timeout=60.0, max_connections=width)
        try:
            rpc.call(
                "gb.create",
                {"name": "ops", "n_readers": 1, "capacity_bytes": None, "cache": False},
            )
            per_worker = max(1, total_ops // width)
            errors: list = []

            def worker():
                try:
                    for _ in range(per_worker):
                        # offset 0 overwrite: constant table size, so
                        # the arm measures transport, not storage.
                        rpc.call(OP_WRITE, {"name": "ops", "offset": 0}, payload)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(width)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - t0
            assert not errors, errors[0]
        finally:
            rpc.close_all()
            rpc.close()
    return per_worker * width / elapsed


def _async_cell(total_ops: int, latency_ms: float, width: int) -> float:
    """ops/s for the async client: every in-flight op is a task
    multiplexed onto ONE pipelined connection — no client pool, no
    thread and no socket per op."""
    payload = b"w" * BLOCK
    with GridBufferServer(simulated_latency=latency_ms / 1e3) as server:
        addr = server.address

        async def go() -> float:
            rpc = AsyncRpcClient(*addr, timeout=60.0)
            try:
                await rpc.call(
                    "gb.create",
                    {"name": "ops", "n_readers": 1, "capacity_bytes": None, "cache": False},
                )
                per_worker = max(1, total_ops // width)

                async def worker():
                    for _ in range(per_worker):
                        await rpc.call(OP_WRITE, {"name": "ops", "offset": 0}, payload)

                t0 = time.perf_counter()
                await asyncio.gather(*(worker() for _ in range(width)))
                elapsed = time.perf_counter() - t0
            finally:
                await rpc.close()
            return per_worker * width / elapsed

        return asyncio.run(go())


def sweep_small_ops(total_ops: int, latency_ms: float, trials: int) -> list:
    """Median ops/s per (arm, concurrency) for 4 KiB gb.write round trips.

    Arms alternate within each trial so machine-load drift hits both
    equally; the median absorbs the single-core box's run-to-run swing.
    """
    cells = []
    for width in CONCURRENCY:
        # With injected latency the wall clock is latency-bound, so cap
        # the op count per pipeline depth to keep the sweep short.
        ops = total_ops if latency_ms == 0 else min(total_ops, width * 32)
        samples = {arm: [] for arm in ARMS}
        for _ in range(trials):
            samples["sync"].append(_sync_cell(ops, latency_ms, width))
            samples["async"].append(_async_cell(ops, latency_ms, width))
        for arm in ARMS:
            cells.append(
                {
                    "arm": arm,
                    "latency_ms": latency_ms,
                    "concurrency": width,
                    "ops": max(1, ops // width) * width,
                    "trials": trials,
                    "ops_per_s": round(statistics.median(samples[arm]), 1),
                }
            )
    return cells


# ---------------------------------------------------------------------------
# Experiment 2: streaming with injected latency
# ---------------------------------------------------------------------------


def stream_once(latency_ms: float) -> dict:
    data = bytes((i * 31) % 256 for i in range(STREAM_BYTES))
    digest = hashlib.sha256(data).hexdigest()
    with GridBufferServer(simulated_latency=latency_ms / 1e3) as server:
        client = GridBufferClient(*server.address, timeout=60.0)
        errors: list = []
        try:
            client.create_stream("st", n_readers=1)
            reader = client.open_reader("st", read_ahead=True, read_ahead_depth=4)

            def write_all():
                try:
                    w = client.open_writer("st", n_readers=1, coalesce_bytes=16 * 1024)
                    for off in range(0, STREAM_BYTES, BLOCK):
                        w.write(data[off : off + BLOCK])
                    w.close()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            t0 = time.perf_counter()
            wt = threading.Thread(target=write_all)
            wt.start()
            got = reader.read()
            wt.join()
            elapsed = time.perf_counter() - t0
            reader.close()
            assert not errors, errors[0]
            assert hashlib.sha256(got).hexdigest() == digest
        finally:
            client.close()
    return {
        "arm": "sync",
        "latency_ms": latency_ms,
        "bytes": STREAM_BYTES,
        "elapsed_s": round(elapsed, 5),
        "mb_per_s": round(STREAM_BYTES / elapsed / 1e6, 3),
    }


# ---------------------------------------------------------------------------
# Experiment 3: reader fan-in on one loop, no thread per reader
# ---------------------------------------------------------------------------


def fan_in(n_readers: int) -> dict:
    payload = b"f" * BLOCK
    with GridBufferServer() as server:
        ctl = GridBufferClient(*server.address, timeout=60.0)
        ctl.create_stream("fan", n_readers=n_readers)
        for i in range(n_readers):
            ctl.register_reader("fan", f"r{i}")
        stats: dict = {}

        async def one(addr, i):
            rpc = AsyncRpcClient(*addr, timeout=60.0)
            try:
                _, data = await rpc.call(
                    OP_READ,
                    {
                        "name": "fan",
                        "reader_id": f"r{i}",
                        "offset": 0,
                        "length": BLOCK,
                        "timeout": 45.0,
                    },
                )
                return data
            finally:
                await rpc.close()

        async def go(addr):
            baseline = threading.active_count()
            t0 = time.perf_counter()
            tasks = [asyncio.create_task(one(addr, i)) for i in range(n_readers)]
            await asyncio.sleep(0.5)  # every read is parked server-side
            stats["threads_baseline"] = baseline
            stats["threads_while_parked"] = threading.active_count()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, ctl.write, "fan", 0, payload)
            await loop.run_in_executor(None, ctl.close_writer, "fan")
            results = await asyncio.gather(*tasks)
            stats["elapsed_s"] = round(time.perf_counter() - t0, 5)
            return results

        try:
            results = asyncio.run(go(server.address))
        finally:
            ctl.close()
    assert results == [payload] * n_readers, "fan-in readers saw wrong bytes"
    delta = stats["threads_while_parked"] - stats["threads_baseline"]
    return {
        "readers": n_readers,
        "elapsed_s": stats["elapsed_s"],
        "server_threads_baseline": stats["threads_baseline"],
        "server_threads_peak": stats["threads_while_parked"],
        "thread_delta_while_parked": delta,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(quick: bool = False, write_json: bool = True) -> dict:
    total_ops = 512 if quick else 3072
    n_readers = 128 if quick else 512
    trials = 1 if quick else 3
    cells = []
    for latency_ms in LATENCIES_MS:
        cells.extend(sweep_small_ops(total_ops, latency_ms, trials))
    streaming = [stream_once(5.0)]
    fan = fan_in(n_readers)

    def ops_at(arm, latency_ms, width):
        return next(
            c["ops_per_s"]
            for c in cells
            if c["arm"] == arm
            and c["latency_ms"] == latency_ms
            and c["concurrency"] == width
        )

    # The headline compares the arms at the top pipeline width.
    # Per-width ratios go in the JSON so the scaling story stays
    # visible, and the depth-1 cells as latency per call.
    top = max(CONCURRENCY)
    speedup_by_width = {
        w: round(ops_at("async", 0.0, w) / ops_at("sync", 0.0, w), 2)
        for w in CONCURRENCY
    }
    speedup_0ms = ops_at("async", 0.0, top) / ops_at("sync", 0.0, top)
    speedup_5ms = ops_at("async", 5.0, top) / ops_at("sync", 5.0, top)
    depth1_us = {arm: round(1e6 / ops_at(arm, 0.0, 1), 1) for arm in ARMS}

    out = {
        "bench": "async_framing_ab",
        "quick": quick,
        "block_size": BLOCK,
        "concurrency": list(CONCURRENCY),
        "latencies_ms": list(LATENCIES_MS),
        "small_ops": cells,
        "streaming_5ms": streaming,
        "fan_in": fan,
        "headline_concurrency": top,
        "speedup_by_concurrency_0ms": speedup_by_width,
        "speedup_at_0ms": round(speedup_0ms, 2),
        "speedup_at_5ms": round(speedup_5ms, 2),
        "depth1_us_per_call_0ms": depth1_us,
        "min_speedup_at_0ms": MIN_QUICK_RATIO if quick else MIN_SPEEDUP_AT_0MS,
    }

    for cell in cells:
        print(
            f"{cell['arm']:>6} {cell['latency_ms']:4.1f}ms x{cell['concurrency']:<3} "
            f"{cell['ops_per_s']:10.1f} ops/s"
        )
    for s in streaming:
        print(f"stream {s['arm']:>6} 5.0ms {s['mb_per_s']:8.3f} MB/s")
    print(
        f"fan-in {fan['readers']} readers: {fan['elapsed_s']}s, "
        f"+{fan['thread_delta_while_parked']} threads while parked"
    )
    print(
        f"speedup at x{top}: {speedup_0ms:.2f}x at 0ms, {speedup_5ms:.2f}x at 5ms "
        f"(by width at 0ms: {speedup_by_width})"
    )
    print(f"depth-1 us/call at 0ms: {depth1_us}")

    floor = MIN_QUICK_RATIO if quick else MIN_SPEEDUP_AT_0MS
    assert speedup_0ms >= floor, (
        f"async client only {speedup_0ms:.2f}x the pooled sync client at 0 ms, "
        f"x{top} in flight (need >= {floor}x)"
    )
    # The headline scaling property: hundreds of parked readers must
    # not cost hundreds of threads.  Generous slack for GC/executor
    # warm-up threads; the regression this guards is delta ~= readers.
    assert fan["thread_delta_while_parked"] <= 8, (
        f"{fan['thread_delta_while_parked']} threads appeared while "
        f"{fan['readers']} readers were parked — thread-per-reader regression"
    )

    if write_json:
        path = Path(__file__).resolve().parents[1] / "BENCH_async_framing.json"
        if path.exists():
            historical = json.loads(path.read_text()).get("historical_legacy")
            if historical is not None:
                out["historical_legacy"] = historical
        path.write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {path}")
    return out


def test_async_framing():
    run(quick=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer ops, fewer readers, floor 1.0x at 0 ms",
    )
    parser.add_argument(
        "--no-json", action="store_true", help="skip writing BENCH_async_framing.json"
    )
    args = parser.parse_args()
    run(quick=args.quick, write_json=not args.no_json)


if __name__ == "__main__":
    main()

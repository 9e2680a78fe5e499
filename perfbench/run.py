#!/usr/bin/env python3
"""End-to-end benchmark of the real byte-moving stack.

    python3 perfbench/run.py --workload durability --seed 1 --seconds 25 --trace 0

Runs one workload closed-loop (the next iteration starts when the
previous one ends) for ``--seconds`` seconds: FM -> GNS -> RPC client ->
server -> Grid Buffer or GridFTP, all in this one process.  Every
iteration's outputs are checked byte for byte against the seeded input.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations, prints the per-layer metrics (plus the
tracing overhead between the two), and writes the spans to
``.perfbench-out/`` in the checkout.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every iteration passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
#: Hard stop: a wedged run must still exit (non-zero) within 180 s.
WATCHDOG_S = 170.0
#: The tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values):
    """Highest order statistic with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Closed-loop iterations: setup -> timed body -> checks -> teardown."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.setups = []
        self.samples = {}  # arm -> [(Sample, cpu_s)]

    def iterate(self, index, arm="plain", before=None, after=None, **setup_kw):
        """One iteration; ``before``/``after`` bracket only the timed body."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            world = self.wl.setup(index, **setup_kw)
            self.setups.append(time.perf_counter() - t0)
            try:
                if before:
                    before()
                c0 = time.process_time()
                try:
                    sample = self.wl.run(world)
                finally:
                    cpu = time.process_time() - c0
                    if after:
                        after()
            finally:
                self.wl.teardown(world)
        except Exception:  # noqa: BLE001 - a failed iteration is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.checks += sample.checks
        self.samples.setdefault(arm, []).append((sample, cpu))
        return sample


def end_to_end(loop):
    runs = loop.samples.get("plain", [])
    makespans = [s.makespan_s for s, _ in runs]
    tail_value, tail_pct = tail(makespans)
    return {
        "makespan_s": (statistics.median(makespans), "s"),
        "makespan_tail_s": (tail_value, "s", f"p{tail_pct:.1f} of n={len(makespans)}"),
        "throughput_mb_s": (statistics.median(s.payload_bytes / 1e6 / s.makespan_s for s, _ in runs), "MB/s"),
        "first_byte_ms": (statistics.median(s.first_byte_s for s, _ in runs) * 1e3, "ms"),
        "cpu_s": (statistics.median(c for _, c in runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (statistics.median(loop.setups), "s"),
        "failed_frac": (loop.failed / loop.attempted, "ratio"),
    }


def run_plain(wl, seconds):
    loop = Loop(wl)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        loop.iterate(i)
        i += 1
    return loop, end_to_end(loop) if loop.samples.get("plain") else {}


def run_traced(wl, seconds, out_path):
    """Alternate untraced and traced iterations; per-layer metrics from the traced ones.

    On durability two more arms run the same seed wired with local
    files, untraced (``apps.local_files_makespan_s``) and traced (so
    the report can set the two wirings' layer splits side by side).
    """
    import probes
    from tracing import Recorder, counter_totals, per_layer
    from workloads import Durability

    rec = Recorder()
    loop = Loop(wl)
    deltas, payload, arm_of = {}, {}, {}
    # (arm, traced, setup keywords)
    arms = [("plain", False, {}), ("traced", True, {})]
    if isinstance(wl, Durability):
        arms += [("local", False, {"coupling": "local"}), ("local-traced", True, {"coupling": "local"})]
    run_start = counter_totals()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(arms) or time.perf_counter() < deadline:
        arm, traced, setup_kw = arms[i % len(arms)]
        if not traced:
            loop.iterate(i, arm, **setup_kw)
            i += 1
            continue
        marks = {}

        def before(i=i, marks=marks):
            marks["c0"] = counter_totals()
            rec.begin(i)

        def after(marks=marks):
            rec.end()
            marks["c1"] = counter_totals()

        staged = isinstance(wl, Durability)
        if staged:
            wl.wrap_stage = rec.stage_wrapper
        sample = loop.iterate(i, arm, before, after, **setup_kw)
        if staged:
            wl.wrap_stage = None
        if sample is not None:
            arm_of[i] = arm
            if arm == "traced":
                deltas[i] = {k: marks["c1"][k] - marks["c0"][k] for k in marks["c0"]}
                payload[i] = sample.payload_bytes
        i += 1
    run_end = counter_totals()
    rec.write(out_path, arm_of)

    m = per_layer(rec.spans, deltas, payload, Durability.STAGES) if deltas else {}
    local = [s.makespan_s for s, _ in loop.samples.get("local", [])]
    m["apps.local_files_makespan_s"] = statistics.median(local) if local else 0.0
    m["transport.rpc_retries"] = run_end["rpc_retries_total"] - run_start["rpc_retries_total"]
    m["transport.rpc_errors"] = run_end["rpc_client_errors_total"] - run_start["rpc_client_errors_total"]
    m.update(probes.thread_probes(wl))
    plain = [s.makespan_s for s, _ in loop.samples.get("plain", [])]
    traced = [s.makespan_s for s, _ in loop.samples.get("traced", [])]
    m["obs.trace_overhead_pct"] = (
        (statistics.median(traced) / statistics.median(plain) - 1) * 100 if plain and traced else 0.0
    )
    return loop, m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {CHECKOUT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(HERE)]
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = CHECKOUT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            out = CHECKOUT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            loop, values = run_traced(wl, args.seconds, out)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
            print(f"# {args.workload}: per-layer metrics (traced run, spans in {out.relative_to(CHECKOUT)})")
            for name, (value, unit) in metrics.items():
                print(f"{name:44s} {value:14.6g} {unit:8s} moves {spec['per_layer'][name]}")
        else:
            loop, values = run_plain(wl, args.seconds)
            print(f"# {args.workload}: end-to-end metrics (untraced run)")
            for name, (value, unit, *note) in values.items():
                print(f"{name:20s} {value:14.6g} {unit:6s} {' '.join(note)}")
            metrics = {m["name"]: values[m["name"]][:2] for m in bench["end_to_end"]} if values else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# iterations attempted={loop.attempted} failed={loop.failed} output_checks_passed={loop.checks}")
    correct = loop.failed == 0 and loop.checks > 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    watchdog = threading.Timer(WATCHDOG_S, lambda: os._exit(3))
    watchdog.daemon = True
    watchdog.start()
    try:
        code = main()
    except Exception:  # noqa: BLE001 - report, then exit non-zero without a result
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    # Server threads of the program under test are daemons; do not wait
    # on any that a failed iteration may have left parked.
    os._exit(code)

#!/usr/bin/env python3
"""Smoke check of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

* runs every workload briefly, untraced and traced, and asserts that
  every metric BENCHMARK.json names is printed with its unit, that
  ``failed_frac`` is printed, and that the output checks ran;
* feeds each workload a wrong expected output in-process and asserts
  the iteration is counted as failed, so a broken output check cannot
  pass silently;
* runs the command in a directory holding only BENCHMARK.json and this
  package and asserts it exits non-zero without printing a result.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SECONDS = "2"


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_printed(bench: dict, spec: dict) -> None:
    names = [w["name"] for w in bench["workloads"]]
    check(sorted(names) == sorted(spec["workloads"]), "spec.json covers exactly the workloads")
    check([m["name"] for m in bench["per_layer"]] == list(spec["per_layer"]),
          "spec.json maps every per-layer metric, in BENCHMARK.json order")
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(CHECKOUT, workload, trace)
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{what} exits 0 (stderr: {proc.stderr[-2000:]})")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what} result keys")
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{what} correct with no failures")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{what} prints every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{what} values are numbers")
            table = "\n".join(lines[:-1])
            for name, unit in want.items():
                check(re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)", table, re.M),
                      f"{what} table line for {name} [{unit}]")
            if trace == 0:
                check(re.search(r"^failed_frac\s+0\s+ratio\b", table, re.M), f"{what} prints failed_frac")
            m = re.search(r"attempted=(\d+) failed=(\d+) output_checks_passed=(\d+)", table)
            check(m and int(m.group(3)) >= int(m.group(1)) >= 1, f"{what} ran its output checks")
            print(f"smoke: ok  {what}: {len(want)} metrics, {m.group(1)} iterations")


def check_detects_mismatch() -> None:
    sys.path[:0] = [str(CHECKOUT / "src"), str(HERE)]
    import run as bench_run
    import workloads as W

    work = CHECKOUT / ".perfbench-work" / f"smoke-{os.getpid()}"
    try:
        for cls, spoil in (
            (W.Durability, lambda wl: setattr(wl, "reference_result", b"not the result")),
            (W.Stream5ms, lambda wl: setattr(wl, "sha", "0" * 64)),
            (W.Remote5ms, lambda wl: wl.sha.update({next(iter(wl.READS)): "0" * 64})),
        ):
            wl = cls(7, work / cls.name)
            spoil(wl)
            loop = bench_run.Loop(wl)
            with contextlib.redirect_stderr(io.StringIO()):  # the expected traceback
                loop.iterate(0)
            check(loop.failed == 1 and loop.attempted == 1, f"{cls.name} counts a wrong output as failed")
            print(f"smoke: ok  {cls.name}: a wrong output fails the iteration")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = CHECKOUT / ".perfbench-work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "durability", 0)
        check(proc.returncode != 0, "bare directory exits non-zero")
        check(not proc.stdout.strip(), "bare directory prints no result")
        print("smoke: ok  bare directory exits non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    check_bare_directory()
    check_detects_mismatch()
    check_printed(bench, spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

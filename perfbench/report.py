#!/usr/bin/env python3
"""Layer split of a traced run, from the span file it wrote.

    python3 perfbench/report.py .perfbench-out/spans-durability-seed1.jsonl

Prints markdown: per arm (``traced``, and ``local-traced`` on
durability) the median traced iteration's stage timeline and
compute/FM split, self time per layer, and per RPC op the client time,
the handler time and the gap between them.  Medians are over the
traced iterations of each arm.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Span, link_handlers, self_time  # noqa: E402

LAYERS = ("apps", "core", "gns", "gridbuffer", "transport")


def load(path: Path):
    arms, spans = {}, []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if "sid" in rec:
            spans.append(Span(**rec))
        else:
            arms[rec["iteration"]] = rec["arm"]
    return arms, spans


def med(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def ms(v: float) -> str:
    return f"{v * 1e3:.1f}"


def arm_report(name: str, spans) -> None:
    children = link_handlers(spans)
    per_it = defaultdict(list)
    for s in spans:
        per_it[s.iteration].append(s)
    iterations = sorted(per_it)
    print(f"\n## arm `{name}` ({len(iterations)} traced iterations; times in ms, medians)\n")

    stages = sorted({s.name for s in spans if s.name.startswith("stage:")},
                    key=lambda n: med(s.start for s in spans if s.name == n))
    if stages:
        print("| stage | starts at | ends at | body | compute (self) | FM open | FM read | FM write | FM close |")
        print("|---|---|---|---|---|---|---|---|---|")
        span_end = []
        for it in iterations:
            stage_spans = [s for s in per_it[it] if s.name.startswith("stage:")]
            if stage_spans:
                span_end.append(max(s.end for s in stage_spans) - min(s.start for s in stage_spans))
        for stage in stages:
            rows = defaultdict(list)
            for it in iterations:
                origin = min(s.start for s in per_it[it] if s.name.startswith("stage:"))
                body = [s for s in per_it[it] if s.name == stage]
                if not body:
                    continue
                b = body[0]
                rows["start"].append(b.start - origin)
                rows["end"].append(b.end - origin)
                rows["body"].append(b.end - b.start)
                rows["self"].append(self_time(b, children))
                for op in ("open", "read", "write", "close"):
                    rows[op].append(sum(c.end - c.start for c in children.get(b.sid, ())
                                        if c.name == f"fm.{op}"))
            print(f"| {stage[len('stage:'):]} | " + " | ".join(
                ms(med(rows[k])) for k in ("start", "end", "body", "self", "open", "read", "write", "close")) + " |")
        print(f"\nfirst stage start to last stage end: {ms(med(span_end))} ms\n")

    print("| layer | self time per iteration (summed over threads) |")
    print("|---|---|")
    for layer in LAYERS:
        v = med(sum(self_time(s, children) for s in per_it[it] if s.layer == layer) for it in iterations)
        print(f"| {layer} | {ms(v)} |")

    print("\n| RPC op | calls/iteration | client p50 | handler p50 | gap p50 | gap sum/iteration |")
    print("|---|---|---|---|---|---|")
    ops = sorted({s.name for s in spans if s.layer == "transport"})
    for op in ops:
        calls = [s for s in spans if s.name == op]
        handled = [c for c in calls if children.get(c.sid)]
        handler = [h.end - h.start for c in handled for h in children[c.sid]]
        gaps = [self_time(c, children) for c in handled]
        gap_sum = med(sum(self_time(c, children) for c in per_it[it] if c.name == op and children.get(c.sid))
                      for it in iterations)
        print(f"| {op[len('rpc:'):]} | {len(calls) / len(iterations):.1f} | {ms(med(c.end - c.start for c in calls))}"
              f" | {ms(med(handler)) if handler else '-'} | {ms(med(gaps)) if gaps else '-'}"
              f" | {ms(gap_sum) if gaps else '-'} |")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    arms, spans = load(Path(argv[0]))
    by_arm = defaultdict(list)
    for s in spans:
        by_arm[arms[s.iteration]].append(s)
    print(f"# Layer split: {Path(argv[0]).name}")
    for arm in sorted(by_arm, key=lambda a: a != "traced"):
        arm_report(arm, by_arm[arm])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

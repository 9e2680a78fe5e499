"""Tests for the trace report renderer (repro.obs.report)."""

import json

import pytest

from repro import obs
from repro.obs.report import (
    load_trace,
    main,
    render_counters,
    render_link_table,
    render_report,
    render_timeline,
)


def _span(name, start, end, **attrs):
    return {
        "type": "span",
        "name": name,
        "trace": "t1",
        "span": name,
        "parent": None,
        "start": start,
        "end": end,
        "dur": end - start,
        "thread": "MainThread",
        "attrs": attrs,
    }


SNAPSHOT = {
    "gridftp_rpc_seconds": {
        "type": "histogram",
        "series": [
            {
                "labels": {"peer": "alpha:5000", "op": "get_block"},
                "value": {"count": 10, "sum": 0.5, "buckets": {}},
            },
        ],
    },
    "gridftp_rpc_bytes_total": {
        "type": "counter",
        "series": [
            {"labels": {"peer": "alpha:5000", "op": "get_block"}, "value": 81920},
        ],
    },
    "fm_ops_total": {
        "type": "counter",
        "series": [{"labels": {"op": "read", "mode": "local"}, "value": 7}],
    },
}


class TestTimeline:
    def test_bars_scale_to_wallclock(self):
        records = [
            _span("workflow", 0.0, 10.0, workflow="climate"),
            _span("task", 0.0, 5.0, task="ccam"),
            _span("task", 2.0, 8.0, task="cc2lam"),
            _span("task", 6.0, 10.0, task="darlam"),
        ]
        out = render_timeline(records, width=40)
        lines = out.splitlines()
        assert "workflow climate" in lines[0]
        assert [line.split()[0] for line in lines[1:]] == ["ccam", "cc2lam", "darlam"]
        ccam, _, darlam = lines[1:]
        # ccam starts at the left edge; darlam's bar starts past midline.
        assert ccam.split("|")[1].startswith("#")
        assert darlam.split("|")[1].startswith(" " * 20)

    def test_unfinished_spans_ignored(self):
        records = [_span("task", 0.0, 1.0, task="hung")]
        records[0]["end"] = None
        records[0]["dur"] = None
        assert "(no finished spans in trace)" in render_timeline(records)

    def test_falls_back_to_any_span_kind(self):
        out = render_timeline([_span("fetch", 0.0, 1.0)])
        assert "fetch" in out


class TestLinkTable:
    def test_peer_row_from_rpc_series(self):
        out = render_link_table(SNAPSHOT)
        row = [line for line in out.splitlines() if line.startswith("alpha:5000")][0]
        cols = row.split()
        assert cols[1] == "10"       # rpcs
        assert cols[2] == "81920"    # bytes
        assert float(cols[3]) == 50.0  # avg ms = 0.5s / 10
        assert abs(float(cols[4]) - 81920 / 0.5 / (1 << 20)) < 0.01

    def test_no_snapshot(self):
        assert "no metrics snapshot" in render_link_table(None)

    def test_snapshot_without_rpc_series(self):
        assert "no gridftp_rpc_*" in render_link_table({"fm_ops_total": SNAPSHOT["fm_ops_total"]})


class TestCounters:
    def test_counter_lines(self):
        out = render_counters(SNAPSHOT)
        assert "fm_ops_total{op=read,mode=local} = 7" in out

    def test_limit_truncates(self):
        snap = {
            f"c{i}_total": {"type": "counter", "series": [{"labels": {}, "value": 1}]}
            for i in range(5)
        }
        out = render_counters(snap, limit=2)
        assert "... and 3 more" in out


class TestCli:
    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_renders_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        records = [
            _span("task", 0.0, 1.0, task="ccam"),
            {"type": "metrics", "time": 1.0, "snapshot": SNAPSHOT},
            "not a dict",
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\nbroken{json\n")
        assert load_trace(path) == records[:2]  # malformed lines skipped
        assert main([str(path), "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "Per-task timeline" in out
        assert "alpha:5000" in out
        assert "fm_ops_total" in out


class TestClimatePipelineTrace:
    def test_report_from_real_climate_run(self, tmp_path, capsys):
        """Acceptance: the report renders a per-task timeline from an
        actual climate-pipeline trace captured via the default tracer."""
        from repro.apps.climate.pipeline import climate_workflow
        from repro.workflow.runner import RealRunner
        from repro.workflow.scheduler import plan_workflow

        trace_path = tmp_path / "climate.jsonl"
        sink = obs.JsonLinesSink(trace_path)
        prior = obs.configure(sink)
        try:
            wf = climate_workflow()
            plan = plan_workflow(wf, {s: "m1" for s in ("ccam", "cc2lam", "darlam")})
            runner = RealRunner(
                plan,
                params={"nlon": 32, "nlat": 16, "nsteps": 4,
                        "lam_nx": 24, "lam_ny": 20, "lam_refine": 2},
                stage_timeout=120,
            )
            result = runner.run()
            assert result.ok, result.errors
            runner.deployment.stop()
            obs.write_metrics()
        finally:
            obs.configure(prior)
            sink.close()

        assert main([str(trace_path)]) == 0
        out = capsys.readouterr().out
        for task in ("ccam", "cc2lam", "darlam"):
            assert task in out, f"timeline missing task {task}"
        assert "Per-task timeline" in out
        assert "workflow climate" in out
        assert "Counters (non-zero)" in out

    def test_full_report_helper(self):
        records = [
            _span("task", 0.0, 2.0, task="ccam"),
            {"type": "metrics", "time": 2.0, "snapshot": SNAPSHOT},
        ]
        out = render_report(records)
        assert "Per-task timeline" in out
        assert "Per-peer link table" in out
        assert "Counters (non-zero)" in out


def _pspan(proc, name, span_id, parent, start, end, **attrs):
    """A finished span in ``proc``'s clock domain (multi-process tests)."""
    return {
        "type": "span", "name": name, "trace": "t1", "span": span_id,
        "parent": parent, "start": start, "end": end, "dur": end - start,
        "thread": "MainThread", "proc": proc, "attrs": attrs,
    }


def _rpc_pair(client_proc, server_proc, n, start, dur, skew, op="gb.read"):
    """Matched rpc.client/rpc.server spans; the server clock runs ``skew``
    seconds ahead (its local timestamps are ``real + skew``)."""
    cid, sid = f"{client_proc}-c{n}", f"{server_proc}-s{n}"
    return [
        _pspan(client_proc, "rpc.client", cid, None, start, start + dur, op=op),
        _pspan(server_proc, "rpc.server", sid, cid,
               start + 0.1 * dur + skew, start + 0.9 * dur + skew, op=op),
    ]


class TestClockOffsets:
    def test_recovers_synthetic_skew(self):
        from repro.obs.report import clock_offsets

        records = [_pspan("driver", "workflow", "wf", None, 0.0, 10.0)]
        for n in range(5):
            records += _rpc_pair("driver", "buffer", n, 1.0 + n, 0.5, skew=1000.0)
        offsets = clock_offsets(records)
        assert offsets["driver"] == 0.0
        assert offsets["buffer"] == pytest.approx(-1000.0, abs=1e-6)

    def test_median_rejects_outlier_samples(self):
        from repro.obs.report import clock_offsets

        records = [_pspan("driver", "workflow", "wf", None, 0.0, 10.0)]
        for n in range(4):
            records += _rpc_pair("driver", "remote", n, 1.0 + n, 0.4, skew=50.0)
        # One retried/preempted RPC with a wild apparent offset.
        records += _rpc_pair("driver", "remote", 99, 8.0, 0.4, skew=5000.0)
        offsets = clock_offsets(records)
        assert offsets["remote"] == pytest.approx(-50.0, abs=1e-6)

    def test_offsets_compose_transitively(self):
        from repro.obs.report import clock_offsets

        # driver -> ftp -> archiver: the archiver only ever talks to ftp.
        records = [_pspan("driver", "workflow", "wf", None, 0.0, 20.0)]
        for n in range(3):
            records += _rpc_pair("driver", "ftp", n, 1.0 + n, 0.5, skew=10.0)
            records += _rpc_pair("ftp", "archiver", 100 + n,
                                 11.0 + n + 10.0, 0.5, skew=7.0)
        offsets = clock_offsets(records)
        assert offsets["ftp"] == pytest.approx(-10.0, abs=1e-6)
        assert offsets["archiver"] == pytest.approx(-17.0, abs=1e-6)

    def test_unlinked_process_defaults_to_zero(self):
        from repro.obs.report import clock_offsets

        records = [_pspan("driver", "workflow", "wf", None, 0.0, 5.0),
                   _pspan("island", "task", "t", None, 2.0, 3.0, task="x")]
        assert clock_offsets(records)["island"] == 0.0


class TestMergeTraces:
    def test_merge_rebases_into_reference_clock(self):
        from repro.obs.report import merge_traces

        driver = [_pspan("driver", "workflow", "wf", None, 0.0, 10.0)]
        buffer_side = []
        for n in range(3):
            pair = _rpc_pair("driver", "buffer", n, 1.0 + n, 0.5, skew=500.0)
            driver.append(pair[0])
            buffer_side.append(pair[1])
        merged, offsets = merge_traces([driver, buffer_side])
        assert offsets["buffer"] == pytest.approx(-500.0, abs=1e-6)
        for record in merged:
            if record["name"] == "rpc.server":
                caller = next(r for r in merged if r["span"] == record["parent"])
                assert caller["start"] < record["start"] < caller["end"]
        assert [r["start"] for r in merged] == sorted(r["start"] for r in merged)

    def test_proc_less_records_grouped_per_file(self):
        from repro.obs.report import merge_traces

        old = [dict(_pspan("x", "task", "t", None, 0.0, 1.0, task="a"))]
        del old[0]["proc"]
        merged, _ = merge_traces([old])
        assert merged[0]["proc"] == "file:0"


class TestCriticalPath:
    def test_priority_attribution(self):
        from repro.obs.report import critical_path

        records = [
            _pspan("d", "workflow", "wf", None, 0.0, 10.0),
            _pspan("d", "task", "t1", "wf", 0.0, 10.0, task="stage"),
            # 2s of transport, 1s of which is really buffer-wait.
            _pspan("d", "rpc.client", "c1", "t1", 2.0, 4.0, op="gb.read"),
            _pspan("b", "rpc.server", "s1", "c1", 2.5, 3.5, op="gb.read"),
            # 1s of queue-wait overlapping nothing else.
            _pspan("d", "task.wait", "w1", "t1", 8.0, 9.0, task="stage"),
        ]
        result = critical_path(records)
        assert result["makespan"] == pytest.approx(10.0)
        cats = result["categories"]
        assert cats["buffer-wait"] == pytest.approx(1.0)
        assert cats["transport"] == pytest.approx(1.0)
        assert cats["queue-wait"] == pytest.approx(1.0)
        assert cats["compute"] == pytest.approx(7.0)
        assert result["coverage"] == pytest.approx(1.0)

    def test_non_buffer_server_spans_are_transport(self):
        from repro.obs.report import critical_path

        records = [
            _pspan("d", "workflow", "wf", None, 0.0, 4.0),
            _pspan("d", "rpc.client", "c1", "wf", 0.0, 2.0, op="get_block"),
            _pspan("f", "rpc.server", "s1", "c1", 0.5, 1.5, op="get_block"),
        ]
        cats = critical_path(records)["categories"]
        assert cats["transport"] == pytest.approx(2.0)
        assert cats["buffer-wait"] == 0.0

    def test_fm_teardown_is_transport(self):
        from repro.obs.report import critical_path

        records = [
            _pspan("d", "workflow", "wf", None, 0.0, 4.0),
            _pspan("d", "task", "t1", "wf", 0.0, 3.0, task="stage"),
            _pspan("d", "fm.close", "c1", "wf", 3.0, 4.0),
        ]
        result = critical_path(records)
        assert result["categories"]["transport"] == pytest.approx(1.0)
        assert result["coverage"] == pytest.approx(1.0)

    def test_spans_clip_to_workflow_window(self):
        from repro.obs.report import critical_path

        records = [
            _pspan("d", "workflow", "wf", None, 5.0, 10.0),
            _pspan("d", "task", "t1", "wf", 0.0, 20.0, task="runaway"),
        ]
        result = critical_path(records)
        assert result["categories"]["compute"] == pytest.approx(5.0)
        assert result["coverage"] == pytest.approx(1.0)

    def test_no_spans_yields_empty_result(self):
        from repro.obs.report import critical_path

        assert critical_path([])["makespan"] == 0.0


class TestMergedCli:
    def test_multi_file_report_with_critical_path(self, tmp_path, capsys):
        driver_file, remote_file = tmp_path / "d.jsonl", tmp_path / "r.jsonl"
        driver = [_pspan("driver", "workflow", "wf", None, 0.0, 10.0),
                  _pspan("driver", "task", "t1", "wf", 0.0, 10.0, task="stage")]
        remote = []
        for n in range(3):
            pair = _rpc_pair("driver", "buffer", n, 1.0 + n, 0.5, skew=123.0)
            driver.append(pair[0])
            remote.append(pair[1])
        driver_file.write_text("\n".join(json.dumps(r) for r in driver))
        remote_file.write_text("\n".join(json.dumps(r) for r in remote))

        assert main([str(driver_file), str(remote_file), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "Clock alignment" in out
        assert "buffer" in out
        assert "Critical-path breakdown" in out
        assert "attributed:" in out

"""Tests for span tracing (repro.obs.spans)."""

import json
import threading

from repro.obs.spans import JsonLinesSink, MemorySink, Tracer


class TestNesting:
    def test_parent_child_same_thread(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("workflow", workflow="climate"):
            with tracer.span("task", task="ccam"):
                pass
        [task, workflow] = sink.records  # inner closes first
        assert task["name"] == "task"
        assert workflow["name"] == "workflow"
        assert task["parent"] == workflow["span"]
        assert task["trace"] == workflow["trace"]
        assert task["dur"] >= 0

    def test_siblings_share_parent(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, root = sink.records
        assert a["parent"] == root["span"]
        assert b["parent"] == root["span"]

    def test_nested_writes_wait_for_the_outermost_span(self):
        """No sink write lands between two sibling spans: nested records
        go out when the outermost local span closes, in finish order."""
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
                assert sink.records == []
            assert sink.records == []
            with tracer.span("b"):
                pass
            assert sink.records == []
        assert [r["name"] for r in sink.records] == ["a1", "a", "b", "root"]

    def test_span_under_attached_parent_writes_at_once(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("workflow"):
            ctx = tracer.current_context()
        with tracer.attach(ctx):
            with tracer.span("task"):
                pass
            assert [r["name"] for r in sink.records] == ["workflow", "task"]

    def test_independent_roots_get_distinct_traces(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        one, two = sink.records
        assert one["trace"] != two["trace"]

    def test_error_recorded_and_raised(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        try:
            with tracer.span("boom"):
                raise ValueError("bad input")
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("span swallowed the exception")
        [record] = sink.records
        assert record["attrs"]["error"] == "ValueError: bad input"

    def test_set_attrs_mid_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("s") as span:
            span.set(bytes_moved=42)
        assert sink.records[0]["attrs"]["bytes_moved"] == 42


class TestCrossThread:
    def test_attach_propagates_parent(self):
        sink = MemorySink()
        tracer = Tracer(sink)

        def worker(ctx):
            with tracer.attach(ctx):
                with tracer.span("task", task="worker"):
                    pass

        with tracer.span("workflow") as wf:
            t = threading.Thread(target=worker, args=(tracer.current_context(),))
            t.start()
            t.join()
            wf_span_id = wf.span_id
        task = sink.spans("task")[0]
        assert task["parent"] == wf_span_id
        assert task["thread"] != sink.spans("workflow")[0]["thread"]

    def test_attach_none_is_noop(self):
        tracer = Tracer(MemorySink())
        with tracer.attach(None):
            assert tracer.current_context() is None

    def test_threads_have_independent_stacks(self):
        tracer = Tracer(MemorySink())
        seen = {}

        def worker():
            seen["ctx"] = tracer.current_context()

        with tracer.span("outer"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["ctx"] is None  # no implicit inheritance


class TestEventsAndSinks:
    def test_event_parents_under_current_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("task") as span:
            tracer.event("fm.read", path="/x", detail=4096)
        event = [r for r in sink.records if r["type"] == "event"][0]
        assert event["parent"] == span.span_id
        assert event["attrs"]["path"] == "/x"

    def test_event_without_sink_is_noop(self):
        tracer = Tracer()  # no sink
        tracer.event("fm.read", path="/x")  # must not raise

    def test_write_metrics_embeds_snapshot(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("m_total").inc(3)
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.write_metrics(registry)
        [record] = sink.records
        assert record["type"] == "metrics"
        assert record["snapshot"]["m_total"]["series"][0]["value"] == 3

    def test_jsonlines_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonLinesSink(path))
        with tracer.span("task", task="t1"):
            tracer.event("fm.open", path="/f")
        tracer.sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["type"] for r in lines} == {"span", "event"}

    def test_configure_swaps_sink(self):
        tracer = Tracer()
        first = MemorySink()
        assert tracer.configure(first) is None
        assert tracer.configure(None) is first

    def test_sink_concurrent_writes(self, tmp_path):
        path = tmp_path / "concurrent.jsonl"
        tracer = Tracer(JsonLinesSink(path))

        def worker(i):
            for _ in range(50):
                with tracer.span("w", idx=i):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tracer.sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 200
        for line in lines:
            json.loads(line)  # every line intact despite interleaving

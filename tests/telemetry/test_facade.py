"""The Telemetry facade: enabled/disabled modes and summary output."""

import io

from repro.telemetry.bus import EventBus
from repro.telemetry.facade import Telemetry
from repro.telemetry.spans import NULL_TRACER, SpanTracer, render_span_tree


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestEnabledMode:
    def test_components_wired(self):
        tel = Telemetry(FakeClock(), enabled=True)
        assert tel.enabled
        assert isinstance(tel.bus, EventBus)
        assert isinstance(tel.tracer, SpanTracer)

    def test_events_recorded_and_exported(self):
        tel = Telemetry(FakeClock(), enabled=True)
        tel.bus.emit("lookup.done", hops=3)
        tel.bus.emit("session.resolved", outcome="completed")
        assert len(tel.bus) == 2
        buf = io.StringIO()
        assert tel.export_jsonl(buf) == 2
        assert buf.getvalue().count("\n") == 2

    def test_spans_emit_to_bus(self):
        clock = FakeClock()
        tel = Telemetry(clock, enabled=True)
        with tel.tracer.span("request", request_id=1):
            clock.now = 2.0
        events = list(tel.bus)
        assert [e.name for e in events] == ["span"]
        assert events[0].fields["name"] == "request"

    def test_span_tree_renders(self):
        tel = Telemetry(FakeClock(), enabled=True)
        with tel.tracer.span("request"):
            with tel.tracer.span("qcs.compose"):
                pass
        tree = render_span_tree(list(tel.bus))
        assert "request" in tree
        assert "  qcs.compose" in tree


class TestDisabledMode:
    def test_null_tracer_and_empty_bus(self):
        tel = Telemetry(lambda: 0.0, enabled=False)
        assert not tel.enabled
        assert tel.tracer is NULL_TRACER
        tel.bus.emit("lookup.done", hops=1)  # dispatch-only: not retained
        assert len(tel.bus) == 0
        assert tel.bus.n_emitted == 1

    def test_dispatch_still_reaches_subscribers(self):
        tel = Telemetry(lambda: 0.0, enabled=False)
        seen = []
        tel.bus.subscribe("lookup.done", lambda e: seen.append(e))
        tel.bus.emit("lookup.done", hops=4)
        assert len(seen) == 1

    def test_spans_are_noops(self):
        tel = Telemetry(lambda: 0.0, enabled=False)
        with tel.tracer.span("request"):
            pass
        assert len(tel.bus) == 0
        assert render_span_tree(list(tel.bus)) == "(no spans)"


class TestSummary:
    def test_event_counts_listed(self):
        tel = Telemetry(FakeClock(), enabled=True)
        tel.bus.emit("lookup.done", hops=2)
        tel.bus.emit("lookup.done", hops=5)
        text = tel.summary()
        assert "2 events emitted" in text
        assert "lookup.done" in text

    def test_metrics_table_included_when_nonempty(self):
        tel = Telemetry(FakeClock(), enabled=True)
        tel.metrics.counter("requests.total").inc()
        tel.metrics.histogram("lookup.hops").observe(4.0)
        text = tel.summary()
        assert "requests.total" in text
        assert "lookup.hops" in text
        # Satellite: histogram rows carry the percentile columns.
        assert "p50" in text and "p95" in text and "p99" in text

    def test_wall_table_included_after_spans(self):
        tel = Telemetry(FakeClock(), enabled=True)
        with tel.tracer.span("request"):
            pass
        assert "request" in tel.summary()
        assert "mean µs" in tel.summary()

    def test_wall_table_suppressed_without_spans(self):
        # tracer.wall_table() returns a "(...)" placeholder with no spans
        # recorded; summary() must drop it rather than print noise.
        tel = Telemetry(FakeClock(), enabled=True)
        assert "(no spans recorded)" not in tel.summary()

    def test_wall_table_suppressed_when_disabled(self):
        tel = Telemetry(lambda: 0.0, enabled=False)
        tel.bus.emit("lookup.done", hops=1)
        assert "(tracing disabled)" not in tel.summary()

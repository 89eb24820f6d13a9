"""The telemetry surface other layers rely on, pinned.

``BusEvent`` construction, bus dispatch and span open/close are the
per-event hot path of a serving request, so their internals are free to
change; what they promise is not: an event reads its fields as
attributes and serializes the same way, ``emit`` and ``emit_event``
build the same event, subscriptions take effect from the next emission
(name subscribers before ``"*"`` ones), and every closed span reaches
the wall totals and every all-span wall observer.
"""

import json

import pytest

from repro.grid import GridConfig, P2PGrid
from repro.telemetry.bus import BusEvent, EventBus
from repro.telemetry.profiling import Profiler
from repro.telemetry.spans import SpanTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def bus(clock):
    return EventBus(clock)


class TestBusEvent:
    def test_fields_read_as_attributes(self):
        event = BusEvent(1.5, 3, "lookup.done", {"hops": 4, "key": "k"})
        assert (event.time, event.seq, event.name) == (1.5, 3, "lookup.done")
        assert event.fields == {"hops": 4, "key": "k"}
        assert (event.hops, event.key) == (4, "k")
        with pytest.raises(AttributeError):
            event.missing

    def test_payload_name_does_not_shadow_the_event_name(self):
        event = BusEvent(0.0, 0, "span", {"name": "qcs.compose"})
        assert event.name == "span"
        assert event.fields["name"] == "qcs.compose"

    def test_to_json_is_canonical(self):
        event = BusEvent(
            2.0, 7, "a", {"zebra": (1, 2), "alpha": {3, 1}, "obj": object}
        )
        line = event.to_json()
        assert list(json.loads(line)) == sorted(json.loads(line))
        assert json.loads(line) == {
            "t": 2.0, "seq": 7, "event": "a", "zebra": [1, 2],
            "alpha": [1, 3], "obj": str(object),
        }
        assert line == json.dumps(
            {"t": 2.0, "seq": 7, "event": "a", "zebra": [1, 2],
             "alpha": [1, 3], "obj": str(object)},
            sort_keys=True,
        )

    def test_str(self):
        event = BusEvent(3.0, 0, "session.failed",
                         {"session_id": 4, "reason": "gone"})
        assert str(event) == (
            "[    3.000] session.failed         session_id=4 reason=gone"
        )

    def test_equality_is_by_value(self):
        a = BusEvent(1.0, 2, "x", {"v": 1})
        assert a == BusEvent(1.0, 2, "x", {"v": 1})
        assert a != BusEvent(1.0, 3, "x", {"v": 1})
        assert a != BusEvent(1.0, 2, "x", {"v": 2})
        assert a != (1.0, 2, "x", {"v": 1})

    def test_unhashable_like_its_fields(self):
        with pytest.raises(TypeError):
            hash(BusEvent(0.0, 0, "x", {}))


class TestEmission:
    def test_emit_and_emit_event_build_identical_events(self, clock):
        clock.now = 4.25
        a, b = EventBus(clock), EventBus(clock)
        seen_a, seen_b = [], []
        a.subscribe("*", seen_a.append)
        b.subscribe("*", seen_b.append)
        ea = a.emit("probe.sent", peer=3, name="inner")
        eb = b.emit_event("probe.sent", {"peer": 3, "name": "inner"})
        assert ea == eb
        assert ea.to_json() == eb.to_json()
        assert str(ea) == str(eb)
        assert seen_a == seen_b == [ea]
        assert list(a) == list(b) == [ea]
        assert a.n_emitted == b.n_emitted == 1

    def test_seq_counts_every_emission_retained_or_not(self, clock):
        bus = EventBus(clock, record=False)
        events = [bus.emit("x") for _ in range(3)]
        assert [e.seq for e in events] == [0, 1, 2]
        assert bus.n_emitted == 3
        assert len(bus) == 0


class TestSubscription:
    def test_name_subscribers_fire_before_wildcards(self, bus):
        order = []
        bus.subscribe("*", lambda e: order.append("star-1"))
        bus.subscribe("a", lambda e: order.append("a-1"))
        bus.subscribe("*", lambda e: order.append("star-2"))
        bus.subscribe("a", lambda e: order.append("a-2"))
        bus.emit("a")
        assert order == ["a-1", "a-2", "star-1", "star-2"]
        order.clear()
        bus.emit("b")
        assert order == ["star-1", "star-2"]

    def test_subscribe_takes_effect_on_the_next_emit(self, bus):
        bus.emit("a")  # warm whatever dispatch state the bus keeps
        seen, star = [], []
        bus.subscribe("a", seen.append)
        bus.subscribe("*", star.append)
        e1 = bus.emit("a")
        e2 = bus.emit("c")
        assert seen == [e1]
        assert star == [e1, e2]

    def test_unsubscribe_takes_effect_on_the_next_emit(self, bus):
        seen, star = [], []
        off = bus.subscribe("a", seen.append)
        off_star = bus.subscribe("*", star.append)
        e1 = bus.emit("a")
        off()
        e2 = bus.emit("a")
        off_star()
        bus.emit("a")
        assert seen == [e1]
        assert star == [e1, e2]
        off()  # idempotent
        off_star()

    def test_a_subscriber_added_during_dispatch_sees_the_next_event(self, bus):
        late = []

        def subscribe_late(event):
            if not late:
                late.append("armed")
                bus.subscribe("a", late.append)

        bus.subscribe("a", subscribe_late)
        bus.emit("a")
        assert late == ["armed"]
        e2 = bus.emit("a")
        assert late == ["armed", e2]


class TestSpanWallFeeds:
    def test_wall_totals_count_every_span(self, bus, clock):
        tracer = SpanTracer(bus, clock)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with pytest.raises(KeyError):
                with tracer.span("b"):
                    raise KeyError
        handle = tracer.open("c")
        handle.end(outcome="done")
        handle.end()
        totals = tracer.wall_totals()
        assert {n: c for n, (c, _s) in totals.items()} == {
            "a": 1, "b": 2, "c": 1
        }
        assert all(s >= 0.0 for _c, s in totals.values())
        assert len(bus.events("span")) == 4

    def test_all_span_and_scoped_observers(self, bus, clock):
        tracer = SpanTracer(bus, clock)
        every, scoped = [], []
        with tracer.span("early"):
            pass
        off_every = tracer.add_wall_observer(
            lambda span, t0, t1: every.append(span.name)
        )
        off_scoped = tracer.add_wall_observer(
            lambda span, t0, t1: scoped.append((span.name, t1 >= t0)),
            name="early",
        )
        with tracer.span("early"):
            with tracer.span("other"):
                pass
        assert every == ["other", "early"]
        assert scoped == [("early", True)]
        off_scoped()
        off_every()
        with tracer.span("early"):
            pass
        assert every == ["other", "early"]
        assert scoped == [("early", True)]

    def test_profiler_sees_every_span_close(self):
        grid = P2PGrid(GridConfig(n_peers=60, telemetry=True, seed=2))
        profiler = Profiler()
        profiler.attach(grid)
        agg = grid.make_aggregator("qsa")
        for _ in range(3):
            agg.aggregate(grid.make_request("video-on-demand", duration=2.0))
        grid.sim.run()
        profiler.detach()
        nested = [
            e for e in grid.telemetry.bus.events("span")
            if e.fields["name"] != "session"
        ]
        assert nested
        assert [r.span_id for r in profiler.wall_spans] == [
            e.fields["id"] for e in nested
        ]

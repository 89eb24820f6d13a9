"""Unit tests for the telemetry event bus."""

import io
import json

import pytest

from repro.telemetry.bus import EventBus


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


class TestEmission:
    def test_emit_stamps_time_and_seq(self, bus, clock):
        clock.now = 2.5
        e1 = bus.emit("a", x=1)
        e2 = bus.emit("b")
        assert (e1.time, e1.seq) == (2.5, 0)
        assert (e2.time, e2.seq) == (2.5, 1)

    def test_fields_accessible_as_attributes(self, bus):
        e = bus.emit("lookup.done", hops=4)
        assert e.hops == 4
        assert e.fields["hops"] == 4
        with pytest.raises(AttributeError):
            e.missing

    def test_payload_may_carry_a_name_field(self, bus):
        # `span` events carry the span's own name alongside the event name.
        e = bus.emit("span", name="qcs.compose")
        assert e.name == "span"
        assert e.fields["name"] == "qcs.compose"

    def test_capacity_bounds_retention(self, clock):
        bus = EventBus(clock, capacity=3)
        for i in range(10):
            bus.emit("e", i=i)
        kept = bus.events()
        assert len(kept) == 3
        assert [e.i for e in kept] == [7, 8, 9]
        assert bus.n_emitted == 10

    def test_capacity_validation(self, clock):
        with pytest.raises(ValueError):
            EventBus(clock, capacity=0)

    def test_str_rendering(self, bus, clock):
        clock.now = 3.0
        e = bus.emit("session.failed", session_id=4, reason="gone")
        assert str(e) == (
            "[    3.000] session.failed         session_id=4 reason=gone"
        )

    def test_dispatch_only_mode_retains_nothing(self, clock):
        bus = EventBus(clock, record=False)
        seen = []
        bus.subscribe("x", seen.append)
        bus.emit("x", v=1)
        assert bus.events() == []
        assert len(seen) == 1  # ...but still dispatches


class TestSubscription:
    def test_subscribers_receive_matching_events(self, bus):
        seen = []
        bus.subscribe("a", seen.append)
        bus.emit("a")
        bus.emit("b")
        assert [e.name for e in seen] == ["a"]

    def test_wildcard_subscriber_sees_everything(self, bus):
        seen = []
        bus.subscribe("*", seen.append)
        bus.emit("a")
        bus.emit("b.c")
        assert [e.name for e in seen] == ["a", "b.c"]

    def test_unsubscribe(self, bus):
        seen = []
        off = bus.subscribe("a", seen.append)
        bus.emit("a")
        off()
        bus.emit("a")
        assert len(seen) == 1


class TestQueries:
    def test_prefix_filter(self, bus):
        bus.emit("qcs.composed")
        bus.emit("qcs.failed")
        bus.emit("lookup.done")
        assert len(bus.events("qcs.")) == 2
        assert len(bus.events("qcs.composed")) == 1

    def test_time_window(self, bus, clock):
        bus.emit("a")
        clock.now = 5.0
        bus.emit("a")
        assert len(bus.events(since=1.0)) == 1
        assert len(bus.events(until=1.0)) == 1

    def test_counts(self, bus):
        bus.emit("a")
        bus.emit("a")
        bus.emit("b")
        assert bus.counts() == {"a": 2, "b": 1}


class TestExport:
    def test_jsonl_roundtrip(self, bus, clock):
        clock.now = 1.25
        bus.emit("a", peers={3, 1, 2}, pair=(1, 2))
        buf = io.StringIO()
        n = bus.export_jsonl(buf)
        assert n == 1
        rec = json.loads(buf.getvalue())
        assert rec["event"] == "a"
        assert rec["t"] == 1.25
        assert rec["peers"] == [1, 2, 3]  # sets export sorted
        assert rec["pair"] == [1, 2]

    def test_jsonl_to_path(self, bus, tmp_path):
        bus.emit("a", x=1)
        bus.emit("b", y=2)
        path = tmp_path / "events.jsonl"
        assert bus.export_jsonl(path) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "a"

    def test_keys_are_sorted_for_byte_stability(self, bus):
        e = bus.emit("a", zebra=1, alpha=2)
        keys = list(json.loads(e.to_json()).keys())
        assert keys == sorted(keys)

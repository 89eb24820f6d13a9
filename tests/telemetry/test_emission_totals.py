"""Per-name emission totals on the bus, and the retain-nothing facade.

``EventBus.counts()`` reports what was *emitted*, whatever the bus
retains: a recording, a bounded and a dispatch-only bus fed the same
names report the same totals, stamp the same ``seq`` and count the same
``n_emitted``.  ``Telemetry(capacity=0)`` is full telemetry whose bus
retains nothing (what ``repro serve`` runs without an export path).
"""

from collections import Counter

import pytest

from repro.telemetry import EventBus, Telemetry

NAMES = ["span", "lookup.done", "span", "probe.refresh", "span",
         "serve.request", "lookup.done", "span"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _feed(bus, clock):
    stamps = []
    for i, name in enumerate(NAMES):
        clock.now = i * 0.5
        stamps.append(bus.emit(name, i=i).seq)
    return stamps


class TestEmissionTotals:
    @pytest.mark.parametrize("record,capacity", [
        (True, None), (True, 1), (True, 3), (False, None),
    ])
    def test_totals_are_the_emitted_names(self, record, capacity):
        clock = FakeClock()
        bus = EventBus(clock, record=record, capacity=capacity)
        stamps = _feed(bus, clock)
        assert bus.counts() == Counter(NAMES)
        assert stamps == list(range(len(NAMES)))
        assert bus.n_emitted == len(NAMES)

    def test_retention_does_not_change_seq_or_totals(self):
        """One sequence, three retention modes: same stamps, same totals;
        only the retained window differs."""
        runs = []
        for record, capacity in ((True, None), (True, 2), (False, None)):
            clock = FakeClock()
            bus = EventBus(clock, record=record, capacity=capacity)
            seen = []
            bus.subscribe(
                "*", lambda e, out=seen: out.append((e.time, e.seq, e.name))
            )
            _feed(bus, clock)
            runs.append((bus, seen))
        (full, seen_full), (bounded, seen_bounded), (dispatch, seen_dispatch) = runs
        assert seen_full == seen_bounded == seen_dispatch
        assert full.counts() == bounded.counts() == dispatch.counts()
        assert full.n_emitted == bounded.n_emitted == dispatch.n_emitted
        assert [len(full), len(bounded), len(dispatch)] == [len(NAMES), 2, 0]
        # Unbounded: the totals equal a walk of the retained stream.
        assert full.counts() == Counter(e.name for e in full)

    def test_counts_is_a_copy(self):
        clock = FakeClock()
        bus = EventBus(clock)
        bus.emit("a")
        snapshot = bus.counts()
        snapshot["a"] += 10
        bus.emit("a")
        assert bus.counts() == {"a": 2}


class TestRetainNothingTelemetry:
    def test_capacity_zero_dispatches_counts_and_retains_nothing(self):
        tel = Telemetry(FakeClock(), enabled=True, capacity=0)
        assert tel.enabled and not tel.bus.recording
        seen = []
        tel.bus.subscribe("span", seen.append)
        with tel.tracer.span("request"):
            tel.bus.emit("lookup.done", hops=2)
        assert len(tel.bus) == 0
        assert tel.bus.n_emitted == 2
        assert tel.bus.counts() == {"lookup.done": 1, "span": 1}
        assert [e.fields["name"] for e in seen] == ["request"]
        text = tel.summary()
        assert "2 events emitted, 0 retained" in text
        assert "lookup.done" in text

    def test_capacity_none_and_positive_still_record(self):
        for capacity, retained in ((None, 3), (2, 2)):
            tel = Telemetry(FakeClock(), enabled=True, capacity=capacity)
            for _ in range(3):
                tel.bus.emit("a")
            assert tel.bus.recording
            assert len(tel.bus) == retained
            assert tel.bus.counts() == {"a": 3}

    def test_negative_capacity_still_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(FakeClock(), enabled=True, capacity=-1)

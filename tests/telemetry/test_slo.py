"""SLO engine: burn math, multi-window classification, the
ok -> breach -> ok lifecycle under a fault burst, and the invariant
that wall-fed objectives never reach the event bus.
"""

import pytest

from repro.telemetry.bus import EventBus
from repro.telemetry.catalog import SLO_CATALOG
from repro.telemetry.slo import (
    Objective,
    SloEngine,
    default_serving_objectives,
)
from repro.telemetry.windows import WindowConfig, WindowedMetrics


def _objective(**overrides):
    base = dict(
        name="slo.psi",
        description="test floor",
        kind="floor",
        target=0.85,
        series="serve.window.admits",
        stat="ratio",
        denominator="serve.window.requests",
    )
    base.update(overrides)
    return Objective(**base)


class TestObjective:
    def test_floor_burn(self):
        obj = _objective(target=0.8)
        assert obj.burn(1.0) == pytest.approx(0.0)
        assert obj.burn(0.8) == pytest.approx(1.0)   # exactly at target
        assert obj.burn(0.6) == pytest.approx(2.0)   # double burn

    def test_ceiling_burn(self):
        obj = _objective(name="slo.denial_rate", kind="ceiling", target=0.25)
        assert obj.burn(0.0) == pytest.approx(0.0)
        assert obj.burn(0.25) == pytest.approx(1.0)
        assert obj.burn(0.5) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _objective(kind="wall")
        with pytest.raises(ValueError):
            _objective(stat="p42")
        with pytest.raises(ValueError):
            _objective(stat="ratio", denominator=None)

    def test_default_objectives_are_catalogued(self):
        objectives = default_serving_objectives()
        assert {o.name for o in objectives} == set(SLO_CATALOG)


def _engine(bus=None, **objective_overrides):
    windows = WindowedMetrics(
        clock=lambda: 0.0,
        config=WindowConfig(width=4.0, step=0.5),
    )
    windows.track("serve.window.requests", kind="counter")
    windows.track("serve.window.admits", kind="counter")
    engine = SloEngine(
        windows, (_objective(**objective_overrides),), bus=bus
    )
    return windows, engine


def _feed(windows, t, admitted):
    windows.observe("serve.window.requests", 1.0, now=t)
    if admitted:
        windows.observe("serve.window.admits", 1.0, now=t)


class TestSloEngine:
    def test_no_signal_is_ok(self):
        _, engine = _engine()
        (status,) = engine.evaluate(0.0)
        assert status.state == "ok"
        assert status.count_long == 0

    def test_min_count_suppresses_alarms(self):
        windows, engine = _engine(min_count=5)
        # Three denials in a row: 100% burn but below min_count.
        for i in range(3):
            _feed(windows, 0.1 * i, admitted=False)
        (status,) = engine.evaluate(0.5)
        assert status.state == "ok"

    def test_breach_needs_short_and_long(self):
        # Long window bad, short window healthy -> warn, not breach.
        windows, engine = _engine(min_count=1)
        for i in range(10):
            _feed(windows, 0.1 + 0.2 * i, admitted=False)   # t in [0.1, 2)
        for i in range(10):
            _feed(windows, 3.1 + 0.05 * i, admitted=True)   # recent: healthy
        (status,) = engine.evaluate(3.8)
        assert status.burn_long >= 1.0
        assert status.burn_short < 1.0
        assert status.state == "warn"

    def test_ok_breach_ok_lifecycle_emits_transitions(self):
        bus = EventBus(clock=lambda: 0.0)
        windows, engine = _engine(bus=bus, min_count=1)
        # Healthy traffic.
        for i in range(20):
            _feed(windows, 0.1 * i, admitted=True)
        (status,) = engine.evaluate(2.0)
        assert status.state == "ok"
        # Fault burst: everything denied -> short and long burn out.
        for i in range(30):
            _feed(windows, 2.0 + 0.05 * i, admitted=False)
        (status,) = engine.evaluate(3.5)
        assert status.state == "breach"
        # Recovery: the denials age out of both windows.
        for i in range(40):
            _feed(windows, 8.0 + 0.05 * i, admitted=True)
        (status,) = engine.evaluate(10.0)
        assert status.state == "ok"
        states = [e.fields["state"] for e in bus.events("slo.state")]
        assert states == ["breach", "ok"]
        first = bus.events("slo.state")[0].fields
        assert first["slo"] == "slo.psi"
        assert first["previous"] == "ok"
        assert first["burn"] >= 1.0

    def test_steady_state_stays_silent(self):
        bus = EventBus(clock=lambda: 0.0)
        windows, engine = _engine(bus=bus, min_count=1)
        for i in range(20):
            _feed(windows, 0.1 * i, admitted=True)
        for step in range(8):
            engine.evaluate(2.0 + 0.5 * step)
        assert bus.events("slo.state") == []
        assert engine.n_transitions == 0

    def test_wall_fed_objective_never_reaches_the_bus(self):
        bus = EventBus(clock=lambda: 0.0)
        windows = WindowedMetrics(
            clock=lambda: 0.0,
            config=WindowConfig(width=4.0, step=0.5),
        )
        windows.track("serve.window.setup_latency_us", wall=True)
        obj = Objective(
            name="slo.setup_latency_p95",
            description="wall latency ceiling",
            kind="ceiling",
            target=100.0,
            series="serve.window.setup_latency_us",
            stat="p95",
            min_count=1,
        )
        engine = SloEngine(windows, (obj,), bus=bus)
        for i in range(10):
            windows.observe("serve.window.setup_latency_us", 5000.0,
                            now=0.1 * i)
        (status,) = engine.evaluate(1.0)
        assert status.state == "breach"       # fully visible in the view
        assert bus.events("slo.state") == []  # but silent on the stream
        assert engine.n_transitions == 1

    def test_maybe_evaluate_throttles_to_step(self):
        _, engine = _engine()
        engine.maybe_evaluate(0.0)
        engine.maybe_evaluate(0.1)
        engine.maybe_evaluate(0.4)
        assert engine.n_evaluations == 1
        engine.maybe_evaluate(0.5)
        assert engine.n_evaluations == 2

    def test_worst_state_and_as_dict(self):
        windows, engine = _engine(min_count=1)
        for i in range(30):
            _feed(windows, 0.05 * i, admitted=False)
        doc = engine.as_dict(1.5)
        assert doc["state"] == "breach"
        assert engine.worst_state() == "breach"
        assert doc["windows"]["long"] == pytest.approx(4.0)
        assert doc["windows"]["short"] == pytest.approx(1.0)
        (obj_doc,) = doc["objectives"]
        assert obj_doc["slo"] == "slo.psi"
        assert obj_doc["state"] == "breach"
        assert obj_doc["since"] is not None

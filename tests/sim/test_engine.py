"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationError


def peek(sim: Simulator) -> float:
    """Time of the next event, or ``float('inf')`` if none."""
    return sim._heap[0][0] if sim._heap else float("inf")


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.5)
    sim.run()
    assert sim.now == 3.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_call_at_runs_at_time():
    sim = Simulator()
    seen = []
    sim.call_at(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_call_in_is_relative():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: sim.call_in(2.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [3.0]


def test_call_at_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_events_fire_in_time_order():
    sim = Simulator()
    seen = []
    for t in (5.0, 1.0, 3.0):
        sim.call_at(t, lambda t=t: seen.append(t))
    sim.run()
    assert seen == [1.0, 3.0, 5.0]


def test_simultaneous_events_fifo():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_at(1.0, lambda i=i: seen.append(i))
    sim.run()
    assert seen == list(range(10))


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.call_at(100.0, lambda: None)
    sim.run(until=7.0)
    assert sim.now == 7.0
    assert len(sim._heap) == 1


def test_run_until_inclusive_boundary():
    sim = Simulator()
    seen = []
    sim.call_at(7.0, lambda: seen.append(True))
    sim.run(until=7.0)
    assert seen == [True]


def test_run_until_past_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_event_value_roundtrip():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("payload")
    sim.run()
    assert ev.ok and ev.value == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_carries_exception():
    sim = Simulator()
    ev = sim.event()
    exc = ValueError("boom")
    ev.fail(exc)
    # No callback handles the failure, so firing it raises.
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert not ev.ok
    assert ev.value is exc


def test_failure_with_a_callback_is_handled():
    sim = Simulator()
    seen = []
    ev = sim.event()
    ev.add_callback(lambda e: seen.append(e.value))
    ev.fail(ValueError("boom"))
    sim.run()
    assert [str(v) for v in seen] == ["boom"]


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_untriggered_event_value_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(99)
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == [99]


def test_callbacks_run_in_registration_order():
    sim = Simulator()
    ev = sim.timeout(1.0)
    seen = []
    ev.add_callback(lambda e: seen.append("a"))
    ev.add_callback(lambda e: seen.append("b"))
    sim.run()
    assert seen == ["a", "b"]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert peek(sim) == float("inf")
    sim.call_at(4.0, lambda: None)
    assert peek(sim) == 4.0


def test_step_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_scheduling_during_run():
    """Events scheduled by callbacks at the same instant still run."""
    sim = Simulator()
    seen = []

    def outer():
        seen.append("outer")
        sim.call_in(0.0, lambda: seen.append("inner"))

    sim.call_at(1.0, outer)
    sim.run()
    assert seen == ["outer", "inner"]


def test_many_events_scale():
    sim = Simulator()
    counter = []
    for i in range(10_000):
        sim.call_at(float(i % 100), lambda: counter.append(1))
    sim.run()
    assert len(counter) == 10_000
    assert sim.now == 99.0

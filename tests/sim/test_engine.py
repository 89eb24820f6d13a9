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


def test_call_in_advances_clock():
    sim = Simulator()
    sim.call_in(3.5, lambda: None)
    sim.run()
    assert sim.now == 3.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, lambda: None)
    assert not sim._heap


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


def test_call_passes_its_arguments():
    sim = Simulator()
    seen = []
    sim.call_in(1.0, lambda *args: seen.append(args), "a", 2)
    sim.run()
    assert seen == [("a", 2)]


def test_heap_entry_holds_the_callback_and_its_arguments():
    sim = Simulator()
    fn = print
    sim.call_at(2.0, fn, "x")
    assert sim._heap == [(2.0, 0, fn, ("x",))]


def test_run_dispatches_every_event_through_step():
    """A ``step`` replaced on the instance sees every event ``run`` fires."""
    sim = Simulator()
    stepped = []
    step = sim.step
    sim.step = lambda: (stepped.append(sim._heap[0][0]), step())
    sim.call_at(1.0, sim.call_in, 1.0, lambda: None)
    sim.call_at(5.0, lambda: None)
    sim.run(until=3.0)
    sim.run()
    assert stepped == [1.0, 2.0, 5.0]


class Ticker:
    """A loop in callback form, shaped like the workload generator."""

    def __init__(self, sim, trace, name, period, steps=3):
        self.sim, self.trace, self.name = sim, trace, name
        self.period, self.left = period, steps

    def start(self):
        self.sim.call_in(0.0, self._schedule_next)

    def _schedule_next(self):
        if self.left:
            self.sim.call_in(self.period, self._step)

    def _step(self):
        self.left -= 1
        self.trace.append((self.name, self.sim.now))
        self._schedule_next()


def test_loop_starts_at_current_time_not_before():
    sim = Simulator()
    trace = []
    sim.call_at(5.0, Ticker(sim, trace, "a", 0.0, steps=1).start)
    sim.run()
    assert trace == [("a", 5.0)]


def test_loops_interleave_by_time_then_seq():
    sim = Simulator()
    trace = []
    Ticker(sim, trace, "a", 1.0).start()
    Ticker(sim, trace, "b", 1.5).start()
    sim.run()
    # At t=3.0 both fire; b's call was scheduled earlier (at t=1.5 vs
    # a's at t=2.0), so the lower sequence number runs b first.
    assert trace == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),
        ("a", 3.0),
        ("b", 4.5),
    ]


def test_raising_callback_propagates_at_its_time():
    sim = Simulator()
    seen = []

    def bad():
        raise RuntimeError("kaput")

    sim.call_at(1.0, bad)
    sim.call_at(1.0, seen.append, "after")
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run(until=10.0)
    assert sim.now == 1.0 and seen == []
    sim.run()  # the kernel is usable again; the rest of the heap runs
    assert seen == ["after"]

"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Interrupt, Process, SimulationError, Simulator


def test_process_runs_and_returns():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "done"

    p = Process(sim, proc())
    sim.run()
    assert p.triggered and p.ok
    assert p.value == "done"
    assert sim.now == 3.0


def test_process_receives_timeout_value():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        got.append(v)

    Process(sim, proc())
    sim.run()
    assert got == ["hello"]


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        Process(sim, lambda: None)


def test_process_starts_at_current_time_not_before():
    sim = Simulator()
    started_at = []

    def proc():
        started_at.append(sim.now)
        yield sim.timeout(0.0)

    sim.call_at(5.0, lambda: Process(sim, proc()))
    sim.run()
    assert started_at == [5.0]


def test_processes_interleave():
    sim = Simulator()
    trace = []

    def ticker(name, period):
        for _ in range(3):
            yield sim.timeout(period)
            trace.append((name, sim.now))

    Process(sim, ticker("a", 1.0))
    Process(sim, ticker("b", 1.5))
    sim.run()
    # At t=3.0 both tickers fire; b's timeout was scheduled earlier
    # (at t=1.5 vs a's at t=2.0) so FIFO tie-breaking runs b first.
    assert trace == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),
        ("a", 3.0),
        ("b", 4.5),
    ]


def test_process_can_wait_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 42

    def parent():
        v = yield Process(sim, child())
        return v + 1

    p = Process(sim, parent())
    sim.run()
    assert p.value == 43


def test_process_propagates_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    p = Process(sim, bad())
    # Nothing waits on the process: its failure surfaces from run().
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run(until=10.0)
    assert sim.now == 1.0
    assert p.triggered and not p.ok
    assert isinstance(p.value, RuntimeError)


def test_failure_of_awaited_process_reaches_the_waiter_not_run():
    sim = Simulator()
    caught = []

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    def parent():
        try:
            yield Process(sim, bad())
        except RuntimeError as exc:
            caught.append(str(exc))

    p = Process(sim, parent())
    sim.run()
    assert caught == ["kaput"] and p.ok


def test_waiting_on_failed_event_throws_into_process():
    sim = Simulator()
    caught = []

    def proc(ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    ev = sim.event()
    Process(sim, proc(ev))
    ev.fail(ValueError("oops"))
    sim.run()
    assert caught == ["oops"]


def test_interrupt_wakes_process():
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            trace.append("slept")
        except Interrupt as i:
            trace.append(("interrupted", i.cause, sim.now))

    p = Process(sim, sleeper())
    sim.call_at(3.0, lambda: p.interrupt("wakeup"))
    sim.run()
    assert trace == [("interrupted", "wakeup", 3.0)]


def test_uncaught_interrupt_finishes_process_with_cause():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    p = Process(sim, sleeper())
    sim.call_at(1.0, lambda: p.interrupt("gone"))
    sim.run()
    assert p.triggered and p.ok
    assert p.value == "gone"


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.0)

    p = Process(sim, quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_stale_wakeup_after_interrupt_ignored():
    """The original timeout firing after an interrupt must not resume twice."""
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
            yield sim.timeout(10.0)
            resumes.append("after")

    p = Process(sim, sleeper())
    sim.call_at(1.0, lambda: p.interrupt())
    sim.run()
    assert resumes == ["interrupt", "after"]


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    p = Process(sim, proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_yield_non_event_raises():
    sim = Simulator()

    def proc():
        yield 123

    p = Process(sim, proc())
    with pytest.raises(TypeError, match="not an Event"):
        sim.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, TypeError)

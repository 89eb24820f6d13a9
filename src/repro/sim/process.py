"""Generator-based cooperative processes on top of the event kernel.

A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.sim.engine.Event` objects (typically timeouts); the process
resumes when the yielded event fires, receiving the event's value via
``send`` (or the event's exception via ``throw`` if the event failed).

Processes are themselves events: they trigger with the generator's return
value when it finishes, so processes can wait on each other.  A generator
that raises fails its process with the exception; when nothing waits on
the process, the exception propagates out of ``Simulator.step`` (and so
out of ``Simulator.run``) instead of being dropped.

This mirrors the SimPy programming model closely enough that anyone who
has used SimPy can read the churn/probing/workload processes in this
repository without a manual.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value given to ``interrupt``.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator, resumed by the event loop.

    Parameters
    ----------
    sim:
        The simulator to run under.
    generator:
        A generator yielding :class:`Event` instances.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__} "
                "(did you call the function instead of passing its generator?)"
            )
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the process off via an immediate event so construction is
        # side-effect free with respect to simulated state.
        start = sim.event()
        start.succeed(None)
        start.add_callback(self._resume)
        self._waiting_on = start

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting on an event detaches it from that event
        (the event may still fire, but this process will not be resumed by
        it twice).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        ev = self.sim.event()
        ev.fail(Interrupt(cause))
        # Mark the pending wait as stale: _resume checks identity.
        self._waiting_on = ev
        ev.add_callback(self._resume)

    # -- internals ---------------------------------------------------------
    def _resume(self, ev: Event) -> None:
        if ev is not self._waiting_on:
            # A stale wakeup: the process was interrupted (or already
            # resumed) while this event was in flight.
            return
        self._waiting_on = None
        try:
            if ev.ok:
                target = self._generator.send(ev.value)
            else:
                target = self._generator.throw(ev.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An un-caught interrupt terminates the process "successfully
            # with cause" -- matches how our churn model stops sessions.
            self.succeed(exc.cause)
            return
        except Exception as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(
                TypeError(f"process {self.name!r} yielded {target!r}, not an Event")
            )
            return
        if target.sim is not self.sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another simulator"
            )
        self._waiting_on = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"

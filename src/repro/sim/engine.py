"""The discrete-event simulation engine.

Design notes
------------
The engine is a classic event-heap simulator.  Events are scheduled at an
absolute simulated time; ties are broken by a monotonically increasing
sequence number so that simultaneous events fire in FIFO order (this makes
runs bit-for-bit reproducible, which every experiment in
:mod:`repro.experiments` relies on).

Time is a ``float`` in *minutes* by convention throughout this project
(the paper's evaluation section is phrased entirely in minutes), although
nothing in the kernel itself assumes a unit.

The hot path is ``schedule()``/``step()``; both are kept free of
per-call object churn beyond the unavoidable heap entry.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, etc.)."""


#: Sentinel for "event has not yet fired".
_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is optionally *scheduled*, and eventually
    either *succeeds* (with a value) or *fails* (with an exception).
    Callbacks registered through :meth:`add_callback` run inside the event
    loop when the event fires, in registration order.

    Events are also what :class:`repro.sim.process.Process` instances
    ``yield`` to suspend themselves.
    """

    __slots__ = ("sim", "_value", "_ok", "_callbacks", "scheduled_at")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        #: Simulated time the event was scheduled to fire at, or ``None``.
        self.scheduled_at: Optional[float] = None

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks.

        ``delay`` is relative to the current simulated time.
        """
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self.sim._enqueue(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; its value becomes the exception."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._value = exc
        self._ok = False
        self.sim._enqueue(self, delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event fires.

        If the event has already been processed the callback runs
        immediately (still inside the current step).
        """
        if self._callbacks is None:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)
        elif self._ok is False:
            # A failure nobody waits on (a crashed process, say) is not
            # dropped: it raises out of the step that fires it.
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<Event {state} at t={self.sim.now:.4g}>"


class Simulator:
    """The event loop.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> sim.call_at(2.0, lambda: seen.append(sim.now))
    >>> sim.run(until=10.0)
    >>> seen
    [2.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event construction ----------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        ev = Event(self)
        ev._value = value
        ev._ok = True
        self._enqueue(ev, delay)
        return ev

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is t={self._now})"
            )
        ev = self.timeout(when - self._now)
        ev.add_callback(lambda _ev: fn(*args))
        return ev

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` time units."""
        return self.call_at(self._now + delay, fn, *args)

    # -- scheduling internals ----------------------------------------------
    def _enqueue(self, ev: Event, delay: float) -> None:
        when = self._now + delay
        ev.scheduled_at = when
        heapq.heappush(self._heap, (when, next(self._seq), ev))

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event.

        A failed event with no callback re-raises its exception here, as
        an unhandled failure does in SimPy, so :meth:`run` cannot return
        normally past a process that crashed.
        """
        if not self._heap:
            raise SimulationError("no events to step")
        when, _seq, ev = heapq.heappop(self._heap)
        self._now = when
        ev._fire()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap is empty or simulated time reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        observe a monotone clock.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            if until is None:
                while self._heap:
                    self.step()
            else:
                if until < self._now:
                    raise SimulationError(
                        f"run(until={until}) is in the past (now={self._now})"
                    )
                while self._heap and self._heap[0][0] <= until:
                    self.step()
                self._now = until
        finally:
            self._running = False

"""The discrete-event simulation engine.

Design notes
------------
The engine is a heap of timed callbacks.  Each heap entry is a tuple
``(when, seq, fn, args)``: ``when`` is the absolute simulated time the
callback fires at, ``seq`` a monotonically increasing sequence number
that breaks ties so simultaneous callbacks fire in the order they were
scheduled (this makes runs bit-for-bit reproducible, which every
experiment in :mod:`repro.experiments` relies on), and ``fn(*args)`` the
work.  :meth:`Simulator.call_at` / :meth:`Simulator.call_in` are the only
way to schedule; a loop that recurs (the workload's arrivals, churn's
minute tick) is a method that does one step's work and then ``call_in``\\ s
itself.

Time is a ``float`` in *minutes* by convention throughout this project
(the paper's evaluation section is phrased entirely in minutes), although
nothing in the kernel itself assumes a unit.

:meth:`Simulator.run` dispatches every event through
:meth:`Simulator.step`, so wrapping ``step`` on an instance sees every
event.  An exception raised by a callback propagates unchanged out of
``step`` (and so out of ``run``) at that event's time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, etc.)."""


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
        self._heap: List[Tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._running = False

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- scheduling --------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is t={self._now})"
            )
        heapq.heappush(self._heap, (when, next(self._seq), fn, args))

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), fn, args))

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Pop the earliest entry, advance the clock to it and run it."""
        if not self._heap:
            raise SimulationError("no events to step")
        when, _seq, fn, args = heapq.heappop(self._heap)
        self._now = when
        fn(*args)

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

"""Discrete-event simulation kernel.

A small, deterministic discrete-event simulation (DES) engine.  It
provides:

* :class:`~repro.sim.engine.Simulator` -- a heap of timed callbacks
  (``call_at`` / ``call_in``), with stable FIFO ordering for simultaneous
  events.  Recurring activities (request arrivals, the churn tick) are
  methods that reschedule themselves.
* :class:`~repro.sim.rng.RngStreams` -- named, independently seeded
  random-number streams so that sub-systems draw from decoupled streams
  and experiments stay reproducible when one sub-system changes.

The engine is intentionally minimal: the large-scale experiments in
:mod:`repro.experiments` schedule hundreds of thousands of events, so the
hot path (``call_in`` / ``step``) allocates only the heap entry.
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.rng import RngStreams

__all__ = [
    "RngStreams",
    "SimulationError",
    "Simulator",
]

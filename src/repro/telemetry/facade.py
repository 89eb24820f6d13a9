"""The :class:`Telemetry` facade: one handle bundling bus + metrics + spans.

The grid owns exactly one ``Telemetry`` (``grid.telemetry``).  It exists
in two modes:

* **enabled** (``GridConfig.telemetry=True``): the bus records events,
  the registry fills, the tracer emits spans, and every instrumented
  subsystem receives the handle.  ``capacity=0`` keeps all of that but
  retains no event: the bus dispatches, stamps ``seq`` and counts, and
  subscribers (the serving plane's windows and trace index) are the only
  readers.  This is what ``repro serve`` runs without ``--telemetry``.
* **disabled** (default): the bus is dispatch-only (so the metrics layer
  still consumes request/session events over it), the tracer is the
  shared no-op, and hot-path subsystems receive ``None`` -- their
  telemetry cost is one attribute check.

``export_jsonl``/``summary`` are the run-level outputs behind
``repro run --telemetry out.jsonl`` and ``repro telemetry summary``.
"""

from __future__ import annotations

from types import MethodType
from typing import IO, Callable, Optional, Union

from repro.telemetry.bus import EventBus
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_TRACER, NullTracer, SpanTracer

__all__ = ["Telemetry"]


class Telemetry:
    """Event bus + metrics registry + span tracer behind one handle."""

    def __init__(
        self,
        clock: Callable[[], float],
        enabled: bool = True,
        capacity: Optional[int] = None,
    ) -> None:
        self.enabled = enabled
        #: The simulated clock every timestamp is read from.
        self.clock = clock
        self.bus = EventBus(
            clock, record=enabled and capacity != 0, capacity=capacity or None
        )
        self.metrics = MetricsRegistry()
        self.tracer: Union[SpanTracer, NullTracer] = (
            SpanTracer(self.bus, clock) if enabled else NULL_TRACER
        )

    @classmethod
    def for_simulator(
        cls, sim, enabled: bool = True, capacity: Optional[int] = None
    ) -> "Telemetry":
        # ``sim.now``'s getter bound to ``sim``: one frame per read where
        # ``lambda: sim.now`` takes two, and the bus, the tracer and the
        # serving plane read the clock ~60 times per serving request.
        clock = MethodType(type(sim).now.fget, sim)
        return cls(clock, enabled=enabled, capacity=capacity)

    # -- outputs -----------------------------------------------------------
    def export_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write the retained event stream as JSONL; returns line count."""
        return self.bus.export_jsonl(destination)

    def summary(self) -> str:
        """Event counts, the metrics registry and span wall totals."""
        lines = [f"telemetry: {self.bus.n_emitted} events emitted, "
                 f"{len(self.bus)} retained"]
        counts = self.bus.counts()
        if counts:
            lines.append("events")
            width = max(len(n) for n in counts)
            for name, count in sorted(counts.items()):
                lines.append(f"  {name:<{width}}  {count:>10d}")
        if not self.metrics.empty:
            lines.append(self.metrics.summary_table())
        wall = self.tracer.wall_table()
        if wall and not wall.startswith("("):
            lines.append(wall)
        return "\n".join(lines)

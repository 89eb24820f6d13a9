"""The serving plane's observability wiring: windows, SLOs and traces.

:class:`ObservabilityPlane` is the glue between the resident grid's
telemetry handle and the runtime views the API layer serves.  It owns

* a :class:`~repro.telemetry.windows.WindowedMetrics` attached to the
  metrics registry as a tap, so every catalogued counter/histogram gains
  a rolling view on the sim clock;
* the derived serving series (requests, admits, denials, faults, setup
  latency) fed from bus subscriptions and the tracer's wall observer;
* a :class:`~repro.telemetry.slo.SloEngine` evaluating the stock serving
  objectives once per window step, emitting catalogued ``slo.state``
  transition events;
* a bounded trace index: recent ``span`` events keyed so one serve
  request's whole span tree (serve -> aggregation -> composition ->
  probing) is retrievable by its ``trace_id``, plus a small ring of
  recent/worst request traces for ``repro top``.

Determinism contract: the plane only *observes*.  Its tap and bus
subscriptions never mutate instruments or emit events, the wall-clock
latency feed stays inside wall-flagged series (whose SLO transitions the
engine keeps off the bus), and ``slo.state`` emission timing is driven
by the sim clock -- so a scripted sim-mode request trace still exports a
byte-identical JSONL stream (``tests/serve/test_determinism.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.telemetry.bus import BusEvent
from repro.telemetry.facade import Telemetry
from repro.telemetry.slo import SloEngine, default_serving_objectives
from repro.telemetry.spans import Span, render_span_tree
from repro.telemetry.windows import WindowConfig, WindowedMetrics

__all__ = ["ObservabilityConfig", "ObservabilityPlane"]


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for the serving plane's observability layer."""

    #: Sliding-window width/step, in the runtime's clock unit (sim
    #: minutes for the default sim-mode server).
    window_width: float = 5.0
    window_step: float = 0.25
    #: Per-bucket percentile sample bound.
    sample_cap: int = 512
    #: Retain at most this many recent ``span`` events for trace queries.
    trace_buffer: int = 50_000
    #: Retain at most this many recent request traces for ``repro top``.
    recent_traces: int = 256
    #: SLO target overrides by objective name (None = stock targets).
    slo_targets: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.trace_buffer < 1 or self.recent_traces < 1:
            raise ValueError("trace buffers must be positive")


class ObservabilityPlane:
    """Windows + SLO engine + trace index over one telemetry handle."""

    def __init__(
        self,
        telemetry: Telemetry,
        clock: Callable[[], float],
        config: Optional[ObservabilityConfig] = None,
    ) -> None:
        if not telemetry.enabled:
            raise ValueError(
                "the observability plane needs full telemetry "
                "(GridConfig.telemetry=True) on the resident grid"
            )
        self.telemetry = telemetry
        self.clock = clock
        self.config = config or ObservabilityConfig()

        self.windows = WindowedMetrics(
            clock,
            WindowConfig(
                width=self.config.window_width,
                step=self.config.window_step,
                sample_cap=self.config.sample_cap,
            ),
        )
        # Derived serving series.  The sim-clock tallies come from bus
        # subscriptions below; setup latency is the one wall-clock feed
        # (span close observer) and is flagged so exposition labels it
        # and the SLO engine keeps its transitions off the bus.
        self.windows.track("serve.window.requests", kind="counter")
        self.windows.track("serve.window.admits", kind="counter")
        self.windows.track("serve.window.denials", kind="counter")
        self.windows.track("serve.window.faults", kind="counter")
        self.windows.track(
            "serve.window.setup_latency_us", kind="histogram", wall=True
        )

        self.engine = SloEngine(
            self.windows,
            default_serving_objectives(self.config.slo_targets),
            bus=telemetry.bus,
        )

        #: Recent ``span`` events, oldest evicted first (trace queries).
        self._span_events: Deque[BusEvent] = deque(
            maxlen=self.config.trace_buffer
        )
        #: Recent serve.request closes: trace_id, op and wall latency.
        self._recent: Deque[Dict[str, Any]] = deque(
            maxlen=self.config.recent_traces
        )

        # Histogram observations mirror into the windows per update (the
        # observations themselves are irrecoverable); counters -- the
        # hottest instrument path -- stay tap-free and are delta-sampled
        # once per window step (see ``on_tick``), Prometheus-style.
        telemetry.metrics.attach_tap(self.windows.record, kinds=("histogram",))
        self._last_sample_bucket = -1
        self._unsubscribes = [
            telemetry.bus.subscribe("request.setup", self._on_setup),
            telemetry.bus.subscribe("fault.injected", self._on_fault),
            telemetry.bus.subscribe("span", self._span_events.append),
            telemetry.tracer.add_wall_observer(
                self._on_request_close, name="serve.request"
            ),
        ]

    def close(self) -> None:
        """Detach every hook (tests; a server keeps the plane for life)."""
        self.telemetry.metrics.attach_tap(None)
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    # -- feeds ---------------------------------------------------------------
    def _on_setup(self, event: BusEvent) -> None:
        now = event.time
        self.windows.observe("serve.window.requests", 1.0, now=now)
        if event.fields.get("admitted"):
            self.windows.observe("serve.window.admits", 1.0, now=now)
        else:
            self.windows.observe("serve.window.denials", 1.0, now=now)

    def _on_fault(self, event: BusEvent) -> None:
        self.windows.observe("serve.window.faults", 1.0, now=event.time)

    def _on_request_close(
        self, span: Span, wall_start: float, wall_end: float
    ) -> None:
        wall_us = (wall_end - wall_start) * 1e6
        self.windows.observe("serve.window.setup_latency_us", wall_us)
        self._recent.append({
            "trace_id": span.fields.get("trace_id"),
            "op": span.fields.get("op"),
            "sim_start": span.sim_start,
            "wall_us": wall_us,
        })

    def _flush_counters(self, now: float) -> None:
        """Fold counter growth since the last sample into the windows."""
        self.windows.sample_counters(
            self.telemetry.metrics.counters(), now=now
        )

    # -- evaluation ----------------------------------------------------------
    def on_tick(self) -> None:
        """Give the SLO engine a chance to re-evaluate (once per step).

        Also the counter-sampling cadence: the first tick inside a new
        window bucket folds the registry's counter growth into the
        windows, so the steady-state request path pays one integer
        compare instead of dozens of tap calls.
        """
        now = self.clock()
        bucket = int(now // self.windows.config.step)
        if bucket != self._last_sample_bucket:
            self._last_sample_bucket = bucket
            self._flush_counters(now)
        self.engine.maybe_evaluate(now)

    # -- views ---------------------------------------------------------------
    def windows_snapshot(self) -> Dict[str, Any]:
        """Windowed series, flushed up to now (the ``/status`` view)."""
        now = self.clock()
        self._flush_counters(now)
        return self.windows.snapshot(now)

    def slo_view(self) -> Dict[str, Any]:
        """The ``GET /slo`` document: objectives plus windowed series."""
        now = self.clock()
        self._flush_counters(now)
        doc = self.engine.as_dict(now)
        doc["series"] = self.windows.snapshot(now)
        return doc

    def recent_traces(self) -> List[Dict[str, Any]]:
        """Most recent first."""
        return list(reversed(self._recent))

    def worst_traces(self, limit: int = 10) -> List[Dict[str, Any]]:
        """Recent serve.request closes, slowest (wall) first."""
        ranked = sorted(
            self._recent, key=lambda t: t["wall_us"], reverse=True
        )
        return ranked[:limit]

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One request's span tree by ``trace_id`` (None if unknown).

        The tree is every retained span whose parent chain reaches the
        ``serve.request`` root carrying the id -- detached session spans
        opened during the request belong to it too.
        """
        events = list(self._span_events)
        root: Optional[BusEvent] = None
        for event in reversed(events):
            fields = event.fields
            if (
                fields.get("name") == "serve.request"
                and fields.get("trace_id") == trace_id
            ):
                root = event
                break
        if root is None:
            return None
        root_id = root.fields["id"]
        by_id = {e.fields["id"]: e for e in events}

        def in_trace(event: BusEvent) -> bool:
            seen = set()
            cursor: Optional[BusEvent] = event
            while cursor is not None:
                span_id = cursor.fields["id"]
                if span_id == root_id:
                    return True
                if span_id in seen:
                    return False
                seen.add(span_id)
                parent = cursor.fields.get("parent")
                cursor = by_id.get(parent) if parent is not None else None
            return False

        members = [e for e in events if in_trace(e)]
        return {
            "trace_id": trace_id,
            "n_spans": len(members),
            "spans": [
                {"end": e.time, **e.fields} for e in members
            ],
            "tree": render_span_tree(members),
        }

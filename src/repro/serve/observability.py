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
* a bounded trace index: one ring of per-request trace records, so one
  serve request's whole span tree (serve -> aggregation -> composition
  -> probing) is retrievable by its ``trace_id``, and the same ring
  lists the recent/worst request traces for ``repro top``.

Determinism contract: the plane only *observes*.  Its tap and bus
subscriptions never mutate instruments or emit events, the wall-clock
latency feed stays inside wall-flagged series (whose SLO transitions the
engine keeps off the bus), and ``slo.state`` emission timing is driven
by the sim clock -- so a scripted sim-mode request trace still exports a
byte-identical JSONL stream (``tests/serve/test_determinism.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.bus import BusEvent
from repro.telemetry.facade import Telemetry
from repro.telemetry.slo import SloEngine, default_serving_objectives
from repro.telemetry.spans import Span, render_span_tree
from repro.telemetry.windows import WindowConfig, WindowedMetrics

__all__ = ["ObservabilityPlane", "RECENT_TRACES"]


#: Retain the span trees of at most this many recent requests (trace
#: queries and ``repro top``; the CI soak job gates on it).
RECENT_TRACES = 256


class _TraceRecord:
    """One serve request: its ``/traces`` summary and its ``span`` events
    in close order (children before the root, late joiners after).

    The tracer numbers spans in open order, and every span opened while
    the root is open nests below it, so the request's spans are the ids
    ``root_id .. last_id`` (the highest id that closed inside it).
    """

    __slots__ = ("root_id", "last_id", "summary", "events")

    def __init__(
        self,
        root_id: int,
        summary: Dict[str, Any],
        events: List[BusEvent],
    ) -> None:
        self.root_id = root_id
        self.last_id = max(
            (event.fields["id"] for event in events), default=root_id
        )
        self.summary = summary
        self.events = events


_root_id = attrgetter("root_id")


class ObservabilityPlane:
    """Windows + SLO engine + trace index over one telemetry handle."""

    def __init__(
        self,
        telemetry: Telemetry,
        clock: Callable[[], float],
    ) -> None:
        if not telemetry.enabled:
            raise ValueError(
                "the observability plane needs full telemetry "
                "(GridConfig.telemetry=True) on the resident grid"
            )
        self.telemetry = telemetry
        self.clock = clock

        # 5-minute windows in 0.25-minute steps of the runtime's clock
        # (sim minutes in both serving modes), 512 samples per bucket.
        self.windows = WindowedMetrics(clock, WindowConfig())
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
            default_serving_objectives(),
            bus=telemetry.bus,
        )

        #: The trace index: one record per recent ``serve.request``
        #: close, oldest first (so ascending in ``root_id``).
        self._records: List[_TraceRecord] = []
        #: trace_id -> its newest retained record.
        self._by_trace: Dict[Any, _TraceRecord] = {}
        #: ``span`` events closed since the last drain, in close order.
        #: Appending is the whole per-span cost; ``_drain`` files them
        #: into records once per request close and before each read.
        self._pending: List[BusEvent] = []

        # Histogram observations mirror into the windows per update (the
        # observations themselves are irrecoverable); counters -- the
        # hottest instrument path -- stay tap-free and are delta-sampled
        # once per window step (see ``on_tick``), Prometheus-style.
        telemetry.metrics.attach_tap(self.windows.record, kinds=("histogram",))
        self._last_sample_bucket = -1
        self._unsubscribes = [
            telemetry.bus.subscribe("request.setup", self._on_setup),
            telemetry.bus.subscribe("fault.injected", self._on_fault),
            telemetry.bus.subscribe("span", self._pending.append),
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
        """Retain one request: a record of its subtree, evicting the
        oldest record past :data:`RECENT_TRACES`.

        The tracer calls this just before it emits the root's own
        ``span`` event, which joins the record at the next drain.
        """
        wall_us = (wall_end - wall_start) * 1e6
        self.windows.observe("serve.window.setup_latency_us", wall_us)
        root_id = span.span_id
        record = _TraceRecord(root_id, {
            "trace_id": span.fields.get("trace_id"),
            "op": span.fields.get("op"),
            "sim_start": span.sim_start,
            "wall_us": wall_us,
        }, self._drain(root_id))
        self._by_trace[record.summary["trace_id"]] = record
        records = self._records
        records.append(record)
        if len(records) > RECENT_TRACES:
            old = records.pop(0)
            old_id = old.summary["trace_id"]
            if self._by_trace.get(old_id) is old:
                del self._by_trace[old_id]

    def _record_of(self, span_id: int) -> Optional[_TraceRecord]:
        """The retained record whose id range holds ``span_id``."""
        records = self._records
        i = bisect_right(records, span_id, key=_root_id)
        if i and span_id <= records[i - 1].last_id:
            return records[i - 1]
        return None

    def _drain(self, root_id: float = math.inf) -> List[BusEvent]:
        """Empty the pending spans; return the closing root's subtree.

        A span opened after the closing root (``id > root_id``) and
        closed before it is in its subtree.  An older span whose parent
        is in a retained record joins it (a session span closing after
        its request), as does a root's own event.  Any other span can
        join no retained trace and is dropped.
        """
        subtree: List[BusEvent] = []
        for event in self._pending:
            fields = event.fields
            span_id = fields["id"]
            if span_id > root_id:
                subtree.append(event)
                continue
            parent = fields["parent"]
            record = self._record_of(span_id if parent is None else parent)
            if record is not None:
                record.events.append(event)
        self._pending.clear()
        return subtree

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

    def n_traces(self) -> int:
        """Request traces the index retains (``traces_retained``)."""
        return len(self._records)

    def n_spans(self) -> int:
        """``span`` events the index retains."""
        self._drain()
        return sum(len(record.events) for record in self._records)

    def recent_traces(self) -> List[Dict[str, Any]]:
        """Most recent first."""
        return [record.summary for record in reversed(self._records)]

    def worst_traces(self, limit: int = 10) -> List[Dict[str, Any]]:
        """Recent serve.request closes, slowest (wall) first."""
        ranked = sorted(
            (record.summary for record in self._records),
            key=lambda t: t["wall_us"], reverse=True,
        )
        return ranked[:limit]

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One request's span tree by ``trace_id`` (None if unknown).

        The tree is every span whose parent chain reaches the newest
        retained ``serve.request`` root carrying the id -- detached
        session spans opened during the request belong to it too, also
        when they close during a later request.  Only the
        :data:`RECENT_TRACES` newest requests are retained.
        """
        self._drain()
        record = self._by_trace.get(trace_id)
        if record is None:
            return None
        members = list(record.events)
        return {
            "trace_id": trace_id,
            "n_spans": len(members),
            "spans": [
                {"end": e.time, **e.fields} for e in members
            ],
            "tree": render_span_tree(members),
        }

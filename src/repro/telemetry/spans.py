"""Span tracing in simulated time.

A *span* is a named interval with a parent, so nested spans render as a
trace tree::

    with tracer.span("request", request_id=7):
        with tracer.span("qcs.compose"):
            with tracer.span("qcs.graph_build"):
                ...
            with tracer.span("qcs.solve"):
                ...

Two flavours:

* :meth:`SpanTracer.span` -- a context manager for synchronous phases.
  Parentage follows the with-nesting (an explicit stack, no thread
  locals: the simulator is single-threaded by construction).
* :meth:`SpanTracer.open` -- a detached span for intervals that outlive
  the opening call, e.g. a session's admit -> completion lifetime.  The
  caller keeps the handle and calls :meth:`Span.end`.

Every span closes by emitting one ``span`` event on the bus carrying
``(name, id, parent, start)``; the event's own timestamp is the end, so
the exported stream stays monotone and byte-deterministic.  Wall-clock
durations are *also* accumulated per span name -- but only in-process,
for the optimization summary; wall time never enters the event stream
(it would break seeded reproducibility).

``NULL_TRACER`` is the disabled-mode stand-in: ``span()`` hands back one
shared no-op context manager, so instrumented code needs no branches and
pays ~a method call when telemetry is off.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.bus import BusEvent, EventBus

__all__ = ["Span", "SpanTracer", "NullTracer", "NULL_TRACER", "render_span_tree"]

#: ``fn(span, wall_start, wall_end)``, called as a span closes.
WallObserver = Callable[["Span", float, float], None]


class Span:
    """One open interval; close with :meth:`end` (or via ``with``)."""

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "sim_start",
        "fields", "_wall_start", "_nested", "_closed",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        sim_start: float,
        fields: Dict[str, Any],
        nested: bool,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.sim_start = sim_start
        self.fields = fields
        # In-process wall aggregate only; never enters the event stream.
        self._wall_start = perf_counter()
        self._nested = nested
        self._closed = False

    @property
    def detached(self) -> bool:
        """True for :meth:`SpanTracer.open` spans (interval outlives the
        opening call, e.g. a session lifetime).  Wall-clock consumers
        use this to tell sim-lifetime intervals from hot-path work."""
        return not self._nested

    def end(self, **extra: Any) -> None:
        """Close the span: pop the stack (if nested) and emit the event."""
        if not self._closed:
            self._closed = True
            self.tracer._close(self, extra)

    # -- context-manager protocol ------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self._closed = True
            self.tracer._close(
                self, None if exc_type is None else {"error": exc_type.__name__}
            )


class _NameStats:
    """Per-span-name wall aggregate plus the observers scoped to it."""

    __slots__ = ("count", "total", "observers")

    def __init__(self, observers: Tuple[WallObserver, ...]) -> None:
        self.count = 0
        self.total = 0.0
        self.observers = observers


class SpanTracer:
    """Creates spans, tracks nesting, and emits ``span`` events."""

    def __init__(self, bus: EventBus, clock: Callable[[], float]) -> None:
        self._bus = bus
        self._clock = clock
        self._stack: List[int] = []
        self._next_id = 0
        #: per-name wall-clock aggregates (every closed span counts).
        self._names: Dict[str, _NameStats] = {}
        #: wall-clock close observers: ``(fn, name)``, where ``name=None``
        #: sees every span.  In-process only (the profiler's and the
        #: serving plane's feed); nothing an observer sees ever reaches
        #: the bus, so the exported stream stays byte-deterministic with
        #: observers attached.
        self._wall_observers: List[Tuple[WallObserver, Optional[str]]] = []

    def _new(self, name: str, nested: bool, fields: Dict[str, Any]) -> Span:
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        span = Span(
            self, name, span_id, stack[-1] if stack else None,
            self._clock(), fields, nested,
        )
        if nested:
            stack.append(span_id)
        return span

    def span(self, name: str, **fields: Any) -> Span:
        """A stack-nested span for a synchronous phase (use ``with``)."""
        return self._new(name, True, fields)

    def open(self, name: str, **fields: Any) -> Span:
        """A detached span whose interval outlives the opening call."""
        return self._new(name, False, fields)

    def _close(self, span: Span, extra: Optional[Dict[str, Any]]) -> None:
        wall_end = perf_counter()
        if span._nested:
            # Tolerate out-of-order closes (an exception unwinding through
            # several spans) by popping down to this span.
            stack = self._stack
            while stack and stack[-1] != span.span_id:
                stack.pop()
            if stack:
                stack.pop()
        name = span.name
        stats = self._names.get(name)
        if stats is None:
            stats = self._names[name] = _NameStats(self._observers_of(name))
        stats.count += 1
        stats.total += wall_end - span._wall_start
        for fn in stats.observers:
            fn(span, span._wall_start, wall_end)
        fields = {
            "name": name,
            "id": span.span_id,
            "parent": span.parent_id,
            "start": span.sim_start,
        }
        if span.fields:
            fields.update(span.fields)
        if extra:
            fields.update(extra)
        self._bus.emit_event("span", fields)

    def _observers_of(self, name: str) -> Tuple[WallObserver, ...]:
        return tuple(
            fn for fn, scope in self._wall_observers
            if scope is None or scope == name
        )

    def _rescope(self) -> None:
        for name, stats in self._names.items():
            stats.observers = self._observers_of(name)

    # -- wall-clock summary (in-process only; never exported) ----------------
    def add_wall_observer(
        self, fn: WallObserver, name: Optional[str] = None
    ) -> Callable[[], None]:
        """Call ``fn(span, wall_start, wall_end)`` on span closes.

        ``name`` scopes the observer to spans of that name; ``None``
        (the default) observes every span.  Returns an unsubscribe
        callable.  Times are ``perf_counter`` values; the observer must
        not emit bus events (that would leak wall-clock ordering into
        the deterministic stream).
        """
        entry = (fn, name)
        self._wall_observers.append(entry)
        self._rescope()

        def remove() -> None:
            try:
                self._wall_observers.remove(entry)
            except ValueError:
                return
            self._rescope()

        return remove

    def wall_totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (count, total wall seconds)`` for closed spans."""
        return {
            n: (stats.count, stats.total)
            for n, stats in sorted(self._names.items())
        }

    def wall_table(self) -> str:
        if not self._names:
            return "(no spans recorded)"
        width = max(len(n) for n in self._names)
        lines = [f"{'span':<{width}}     count   total ms    mean µs"]
        for name, (count, total) in self.wall_totals().items():
            mean_us = (total / count) * 1e6 if count else 0.0
            lines.append(
                f"{name:<{width}}  {count:>8d} {total * 1e3:>10.2f} "
                f"{mean_us:>10.1f}"
            )
        return "\n".join(lines)


class NullTracer:
    """Disabled-mode tracer: every ``span()`` is one shared no-op."""

    __slots__ = ()

    class _NullSpan:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            return None

        def end(self, **extra: Any) -> None:
            return None

    _SPAN = _NullSpan()

    def span(self, name: str, **fields: Any) -> "_NullSpan":
        return self._SPAN

    def open(self, name: str, **fields: Any) -> "_NullSpan":
        return self._SPAN

    def add_wall_observer(
        self, fn: WallObserver, name: Optional[str] = None
    ) -> Callable[[], None]:
        return lambda: None

    def wall_totals(self) -> Dict[str, Tuple[int, float]]:
        return {}

    def wall_table(self) -> str:
        return "(tracing disabled)"


NULL_TRACER = NullTracer()


def render_span_tree(events: Sequence[BusEvent], limit: int = 200) -> str:
    """Render ``span`` events (from a bus or a parsed JSONL) as a tree.

    Children are indented under their parent; each line shows the span's
    simulated interval.  ``limit`` caps the output for huge traces.
    """
    spans = [e for e in events if e.name == "span"]
    if not spans:
        return "(no spans)"
    children: Dict[Optional[int], List[BusEvent]] = {}
    for e in spans:
        children.setdefault(e.fields.get("parent"), []).append(e)

    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        for e in children.get(parent, ()):
            if len(lines) >= limit:
                return
            f = e.fields
            extras = " ".join(
                f"{k}={v}"
                for k, v in f.items()
                if k not in ("name", "id", "parent", "start")
            )
            lines.append(
                f"{'  ' * depth}{f['name']} "
                f"[{f['start']:.3f} -> {e.time:.3f} min]"
                + (f" {extras}" if extras else "")
            )
            walk(f["id"], depth + 1)

    walk(None, 0)
    if len(lines) >= limit:
        lines.append(f"... ({len(spans)} spans total)")
    return "\n".join(lines)

"""The structured event bus: ``emit(name, **fields)`` on the sim clock.

The bus is the single spine every telemetry signal travels over:

* instrumented subsystems **emit** named events whose timestamp is the
  *simulated* clock (wall time never enters the stream, so two runs with
  the same seed produce byte-identical streams -- tested in
  ``tests/telemetry/test_determinism.py``);
* consumers **subscribe** by event name (or ``"*"``) and receive each
  event synchronously, in emission order;
* when ``record=True`` the bus additionally retains events (optionally
  bounded) for later export as JSONL;
* in every mode the bus keeps per-name emission totals
  (:meth:`EventBus.counts`), one dict increment per event.

Dispatch-only mode (``record=False``) is what a disabled-telemetry grid
runs: the low-volume request/session events still reach the metrics
layer (:meth:`repro.experiments.metrics.MetricsCollector.attach`), but
nothing is retained and no high-volume instrumentation site ever fires,
so the hot paths pay only a ``None`` check (measured < 2 % on
``bench_qcs_complexity``; see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

__all__ = ["BusEvent", "EventBus"]


@dataclass(slots=True)
class BusEvent:
    """One named, timestamped occurrence on the bus.

    ``time`` is simulated minutes; ``seq`` is a per-bus monotone counter
    that orders simultaneous events (the simulator fires ties FIFO, so
    ``(time, seq)`` is a total, reproducible order).  Events are
    read-only by convention, not frozen: the bus builds one per emission
    (dozens per serving request), and a frozen dataclass pays an
    ``object.__setattr__`` per field to build one.
    """

    time: float
    seq: int
    name: str
    fields: Dict[str, Any]

    def __getattr__(self, key: str) -> Any:
        try:
            return self.fields[key]
        except KeyError:
            raise AttributeError(key) from None

    def to_json(self) -> str:
        """One canonical JSON line (sorted keys -> byte-stable output)."""
        payload = {"t": self.time, "seq": self.seq, "event": self.name}
        payload.update(self.fields)
        return json.dumps(payload, sort_keys=True, default=_jsonable)

    def __str__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:9.3f}] {self.name:<22} {inner}"


def _jsonable(value: Any) -> Any:
    """Fallback serializer: tuples/sets become lists, the rest ``str``."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return str(value)


class EventBus:
    """Named-event pub/sub stamped with the simulation clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time.
    record:
        Retain emitted events for export/inspection.  ``False`` keeps
        the bus dispatch-only (subscribers still fire).
    capacity:
        With ``record=True``, keep at most this many most-recent events
        (``None`` = unbounded).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        record: bool = True,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None)")
        self._clock = clock
        self._record = record
        self._events: Deque[BusEvent] = deque(maxlen=capacity)
        self._subscribers: Dict[str, List[Callable[[BusEvent], None]]] = {}
        #: ``name -> (name subscribers..., "*" subscribers...)``, built
        #: on a name's first emission and dropped whenever a subscription
        #: changes, so each emit dispatches through one tuple.
        self._dispatch: Dict[str, Tuple[Callable[[BusEvent], None], ...]] = {}
        #: ``name -> events emitted`` (retained or not).
        self._totals: Dict[str, int] = {}
        self._seq = 0

    @property
    def recording(self) -> bool:
        return self._record

    @property
    def n_emitted(self) -> int:
        """Events emitted so far (retained or not)."""
        return self._seq

    # -- emission ---------------------------------------------------------
    def emit(self, name: str, /, **fields: Any) -> BusEvent:
        """Stamp, retain (if recording) and dispatch one event.

        The event name is positional-only so payloads may themselves
        carry a ``name`` field (``span`` events do).
        """
        return self.emit_event(name, fields)

    def emit_event(self, name: str, fields: Dict[str, Any]) -> BusEvent:
        """:meth:`emit` with a pre-built fields dict.

        High-volume emitters (the span tracer) assemble their payload
        once and hand over ownership of ``fields`` instead of paying a
        kwargs repack per event.
        """
        seq = self._seq
        self._seq = seq + 1
        totals = self._totals
        totals[name] = totals.get(name, 0) + 1
        event = BusEvent(self._clock(), seq, name, fields)
        if self._record:
            self._events.append(event)
        targets = self._dispatch.get(name)
        if targets is None:
            subs = self._subscribers
            targets = self._dispatch[name] = (
                *subs.get(name, ()), *subs.get("*", ())
            )
        for fn in targets:
            fn(event)
        return event

    # -- subscription -------------------------------------------------------
    def subscribe(
        self, name: str, fn: Callable[[BusEvent], None]
    ) -> Callable[[], None]:
        """Call ``fn`` on every ``name`` event (``"*"`` = every event).

        Name subscribers fire before ``"*"`` ones, each group in
        subscription order.  Subscribing or unsubscribing takes effect
        from the next emission.  Returns an unsubscribe callable.
        """
        self._subscribers.setdefault(name, []).append(fn)
        self._dispatch.clear()

        def unsubscribe() -> None:
            try:
                self._subscribers[name].remove(fn)
            except (KeyError, ValueError):
                return
            self._dispatch.clear()

        return unsubscribe

    # -- retained-stream queries ---------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[BusEvent]:
        return iter(self._events)

    def events(
        self,
        name: Optional[str] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[BusEvent]:
        """Retained events, optionally filtered by name and time window.

        A ``name`` ending in ``.`` matches the whole prefix (e.g.
        ``"qcs."`` returns every QCS event).
        """
        if name is not None and name.endswith("."):
            match = lambda e: e.name.startswith(name)  # noqa: E731
        elif name is not None:
            match = lambda e: e.name == name  # noqa: E731
        else:
            match = lambda e: True  # noqa: E731
        return [e for e in self._events if match(e) and since <= e.time <= until]

    def counts(self) -> Counter:
        """Events emitted so far by name (retained or not).

        A bounded or dispatch-only bus reports the same counts as an
        unbounded one fed the same events.
        """
        return Counter(self._totals)

    # -- export -----------------------------------------------------------
    def export_jsonl(self, destination: Union[str, IO[str]]) -> int:
        """Write the retained stream as JSON Lines; returns line count.

        ``destination`` is a path or an open text file.  Lines are in
        emission order, hence non-decreasing in ``t`` and strictly
        increasing in ``seq``.
        """
        if hasattr(destination, "write"):
            return self._write_jsonl(destination)
        with open(destination, "w", encoding="utf-8") as fh:
            return self._write_jsonl(fh)

    def _write_jsonl(self, fh: IO[str]) -> int:
        n = 0
        for event in self._events:
            fh.write(event.to_json())
            fh.write("\n")
            n += 1
        return n

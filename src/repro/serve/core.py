"""The serving-plane core: a resident grid behind a single-writer loop.

This module is the state layer of the DIRAC-style stack
(core / logic / routers / client / cli):

* :class:`ServeConfig` -- everything ``repro serve`` can be told:
  scenario, seed, address, clock mode, fault plan, telemetry export.
* :class:`GridRuntime` -- owns one long-lived :class:`~repro.grid.P2PGrid`
  plus its aggregator, and exposes the *only* operations the API layer
  may perform: ``compose``, ``release``, ``sessions`` and read-only
  status/metrics snapshots.  Every mutating call first advances the
  grid's clock through the configured :class:`ClockPolicy`.
* :class:`ServeServer` -- binds the runtime to the HTTP layer.  All
  requests are handled under one ``asyncio.Lock`` (single-writer event
  loop), so the grid never sees concurrent mutation and a scripted
  request trace replays deterministically.

Clock modes
-----------
``sim``
    Simulated time advances only when a request arrives: each API call
    runs the event heap ``tick_minutes`` forward before it is handled.
    Byte-identical seeded telemetry is preserved -- two runs that see
    the same request trace produce the same JSONL stream (enforced by
    ``tests/serve/test_determinism.py``).
``wall``
    Simulated time tracks the wall clock at :data:`WALL_MINUTES_PER_SECOND`
    sim-minutes per real second -- sessions expire while you watch.
    Inherently non-deterministic; for demos and soak runs.
"""

from __future__ import annotations

import asyncio
import gc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Tuple

from repro.capabilities import SERVE_API_VERSION, build_descriptor
from repro.core.aggregation import AggregationResult
from repro.grid import GridConfig, P2PGrid
from repro.sessions.session import Session
from repro.sim.engine import Simulator
from repro.telemetry.bus import BusEvent

__all__ = [
    "ClockPolicy",
    "GridRuntime",
    "ServeConfig",
    "ServeServer",
    "SimTickClock",
    "WallClock",
    "tune_gc_for_serving",
]

#: Resident-server GC thresholds.  A compose request allocates a few
#: thousand short-lived objects, so CPython's default gen0 threshold
#: (700) fires several allocation-triggered collections *per request*
#: -- and those collections, not the plane's own compute, dominate the
#: marginal cost of anything that allocates on the request path (the
#: observability plane's window buckets, span records and trace index
#: included; docs/observability.md, "What the plane costs").  A resident
#: server trades rarer, slightly longer collections for a request path
#: that almost never pays one.
_SERVING_GC_THRESHOLDS = (50_000, 20, 20)

#: Sim-minutes per wall-clock second (wall mode).
WALL_MINUTES_PER_SECOND = 1.0
#: Retain the outcomes of at most this many resolved sessions for
#: ``GET /sessions/{id}`` after teardown.
OUTCOME_HISTORY = 10_000


def tune_gc_for_serving() -> None:
    """Raise the allocation-triggered GC thresholds for a resident server.

    Called by every server boot path (``repro serve`` and the tests'
    background-thread harness).  Process-global and deliberately not
    undone on shutdown: thresholds only defer collections, they never
    change observable behaviour, and a process that hosted a server once
    keeps hosting its runtime state anyway.
    """
    gc.set_threshold(*_SERVING_GC_THRESHOLDS)


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one ``repro serve`` instance."""

    #: Named scenario (``repro.experiments.config.SCENARIOS``) whose grid
    #: shape to load (ignored when :attr:`grid` is given explicitly).
    scenario: str = "baseline"
    #: Root seed (overrides the scenario's).
    seed: int = 0
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (tests, benches).
    port: int = 8177
    #: Aggregation algorithm serving ``POST /compose``.
    algorithm: str = "qsa"
    #: ``"sim"`` or ``"wall"`` (see the module docstring).
    mode: str = "sim"
    #: Sim-minutes the event heap advances per API request (sim mode).
    tick_minutes: float = 0.05
    #: Export the telemetry stream here (JSONL) at shutdown; also forces
    #: full telemetry recording on the grid.
    telemetry_path: Optional[str] = None
    #: JSON fault plan applied to the resident grid.
    faults_path: Optional[str] = None
    #: Explicit grid configuration (tests/benches); bypasses scenario.
    grid: Optional[GridConfig] = None
    #: Run the observability plane (windowed metrics, SLO engine,
    #: Prometheus exposition, trace index).  Forces full telemetry on the
    #: resident grid; when neither the grid config nor
    #: :attr:`telemetry_path` asked for telemetry, the bus retains no
    #: event (nothing would export it): the plane reads its subscriptions.
    observability: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("sim", "wall"):
            raise ValueError(f"unknown clock mode {self.mode!r} (sim/wall)")
        if self.tick_minutes < 0:
            raise ValueError("tick_minutes must be >= 0")


class ClockPolicy(Protocol):
    """How the resident grid's simulated clock advances between requests."""

    def advance(self, sim: Simulator) -> None:
        """Advance ``sim`` according to the policy (may be a no-op)."""


class SimTickClock:
    """Deterministic serving: a fixed sim-tick per handled request."""

    def __init__(self, tick_minutes: float) -> None:
        self.tick_minutes = tick_minutes

    def advance(self, sim: Simulator) -> None:
        if self.tick_minutes > 0:
            sim.run(until=sim.now + self.tick_minutes)


class WallClock:
    """Wall-coupled serving: sim time tracks real elapsed time."""

    def __init__(self, minutes_per_second: float) -> None:
        self.minutes_per_second = minutes_per_second
        self._wall_start: Optional[float] = None
        self._sim_start = 0.0

    def advance(self, sim: Simulator) -> None:
        import time

        # Wall-clock serving is explicitly non-deterministic; the read
        # never reaches a seeded experiment (sim mode is the default).
        now = time.monotonic()
        if self._wall_start is None:
            self._wall_start = now
            self._sim_start = sim.now
            return
        target = self._sim_start + (now - self._wall_start) * self.minutes_per_second
        if target > sim.now:
            sim.run(until=target)


def _rss_kb() -> Optional[int]:
    """This process's resident set size in KiB (None off-Linux).

    Feeds the soak harness's drift check through ``GET /status``; it is
    process state, not simulated state, and never enters the telemetry
    stream.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _build_clock(config: ServeConfig) -> ClockPolicy:
    if config.mode == "wall":
        return WallClock(WALL_MINUTES_PER_SECOND)
    return SimTickClock(config.tick_minutes)


def _resolve_grid_config(config: ServeConfig) -> GridConfig:
    """The grid shape this server keeps resident."""
    from dataclasses import replace

    if config.grid is not None:
        grid_config = config.grid
    else:
        from repro.experiments.config import SCENARIOS

        make = SCENARIOS.get(config.scenario)
        if make is None:
            raise ValueError(
                f"unknown serve scenario {config.scenario!r}; "
                f"available: {', '.join(sorted(SCENARIOS))}"
            )
        grid_config = make(config.seed).grid
    if config.seed != grid_config.seed:
        grid_config = replace(grid_config, seed=config.seed)
    if config.telemetry_path is not None and not grid_config.telemetry:
        grid_config = replace(grid_config, telemetry=True)
    if config.observability and not grid_config.telemetry:
        # The observability plane needs the full telemetry handle, but
        # nothing exports this stream: the bus retains no event (an
        # explicit telemetry=True grid records as it asked).
        grid_config = replace(grid_config, telemetry=True, telemetry_capacity=0)
    if config.faults_path is not None:
        from repro.faults.plan import FaultPlan

        grid_config = replace(grid_config, faults=FaultPlan.load(config.faults_path))
    return grid_config


class GridRuntime:
    """A resident grid plus the operations the API layer may perform.

    The runtime is *not* thread-safe by itself; :class:`ServeServer`
    guarantees single-writer access by serializing every request under
    one asyncio lock.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.grid = P2PGrid(_resolve_grid_config(config))
        self.aggregator = self.grid.make_aggregator(config.algorithm)
        self.clock: ClockPolicy = _build_clock(config)
        self.bus = self.grid.telemetry.bus
        self.started_sim_time = self.grid.sim.now
        #: Windows + SLO engine + trace index (None with observability
        #: off, or when an explicit grid config disabled telemetry).
        self.observability: Optional[Any] = None
        if config.observability and self.grid.telemetry.enabled:
            from repro.serve.observability import ObservabilityPlane

            self.observability = ObservabilityPlane(
                self.grid.telemetry,
                # The bus's own sim clock: the plane's clock runs on the
                # tap hot path (dozens of reads per request).
                clock=self.grid.telemetry.clock,
            )
        #: Per-API-plane tallies (ψ's serving-side view).
        self.n_http_requests = 0
        self.n_compose = 0
        self.n_admitted = 0
        self.n_rejected = 0
        self.n_released = 0
        self.total_lookup_hops = 0
        #: ``session_id -> final outcome`` for resolved sessions, bounded
        #: to :data:`OUTCOME_HISTORY` entries (oldest evicted first).
        self._outcomes: Dict[int, Dict[str, Any]] = {}
        #: Setup metadata kept per admitted session so ``GET`` views can
        #: report what was composed (evicted with the outcome history).
        self._session_meta: Dict[int, Dict[str, Any]] = {}
        self.grid.telemetry.bus.subscribe(
            "session.resolved", self._note_outcome
        )

    # -- lifecycle bookkeeping ---------------------------------------------
    def _note_outcome(self, event: BusEvent) -> None:
        self._outcomes[event.session_id] = {
            "state": event.state,
            "reason": event.reason,
            "resolved_at": event.time,
        }
        while len(self._outcomes) > OUTCOME_HISTORY:
            oldest = next(iter(self._outcomes))
            del self._outcomes[oldest]
            self._session_meta.pop(oldest, None)

    def note_http(self, method: str, route: str, status: int) -> None:
        """Account one answered API request (any route, any outcome)."""
        self.n_http_requests += 1
        self.bus.emit("serve.request", method=method, route=route, status=status)
        if self.grid.telemetry.enabled:
            self.grid.telemetry.metrics.counter("serve.requests").inc()
        if self.observability is not None:
            # SLO evaluation rides the request path (sim clock), so its
            # timing -- and any slo.state transitions -- stay a pure
            # function of the request trace.
            self.observability.on_tick()

    # -- mutating operations ------------------------------------------------
    def compose(
        self,
        application: str,
        qos_level: str,
        duration: float,
        peer_id: Optional[int],
        out_format: Optional[str],
        trace_id: str = "",
    ) -> AggregationResult:
        """Advance the clock, then run one aggregation request.

        ``trace_id`` (minted by the HTTP layer) roots the request's span
        tree: the ``serve.request`` span opened here parents the
        aggregator's ``request`` span and everything below it, so one
        serve request reads back as one correlated trace.
        """
        self.clock.advance(self.grid.sim)
        with self.grid.telemetry.tracer.span(
            "serve.request", trace_id=trace_id, op="compose"
        ):
            request = self.grid.make_request(
                application=application,
                qos_level=qos_level,
                duration=duration,
                peer_id=peer_id,
                out_format=out_format,
            )
            result = self.aggregator.aggregate(request)
        self.n_compose += 1
        self.total_lookup_hops += result.lookup_hops
        if result.admitted and result.session is not None:
            self.n_admitted += 1
            self._session_meta[result.session.session_id] = {
                "application": application,
                "qos_level": qos_level,
                "lookup_hops": result.lookup_hops,
                "score": result.composed.score if result.composed else None,
            }
        else:
            self.n_rejected += 1
        return result

    def release(self, session_id: int, trace_id: str = "") -> Optional[Session]:
        """Advance the clock, then tear one active session down."""
        self.clock.advance(self.grid.sim)
        with self.grid.telemetry.tracer.span(
            "serve.request", trace_id=trace_id, op="release"
        ):
            session = self.grid.ledger.release_session(session_id)
        if session is not None:
            self.n_released += 1
        return session

    def tick(self) -> None:
        """Advance the clock without mutating anything else (GET paths)."""
        self.clock.advance(self.grid.sim)

    # -- read-only views ------------------------------------------------------
    def active_sessions(self) -> List[Session]:
        return sorted(
            self.grid.ledger.active_sessions(), key=lambda s: s.session_id
        )

    def find_session(
        self, session_id: int
    ) -> Tuple[str, Optional[Session], Optional[Dict[str, Any]]]:
        """``("active", session, meta)``, ``("resolved", None, outcome)``
        or ``("unknown", None, None)``."""
        for session in self.grid.ledger.active_sessions():
            if session.session_id == session_id:
                return "active", session, self._session_meta.get(session_id)
        outcome = self._outcomes.get(session_id)
        if outcome is not None:
            merged = dict(outcome)
            merged.update(self._session_meta.get(session_id, {}))
            return "resolved", None, merged
        return "unknown", None, None

    def session_meta(self, session_id: int) -> Dict[str, Any]:
        return self._session_meta.get(session_id, {})

    def status(self) -> Dict[str, Any]:
        grid = self.grid
        ledger = grid.ledger
        churn = grid.churn
        store = grid.directory.store
        # Only ``qsa`` holds a composer (and so a plan LRU).
        stats = getattr(
            getattr(self.aggregator, "composer", None), "plan_stats", None
        )
        return {
            "service": build_descriptor(),
            "api": SERVE_API_VERSION,
            "scenario": self.config.scenario if self.config.grid is None else None,
            "algorithm": self.config.algorithm,
            "seed": grid.config.seed,
            "mode": self.config.mode,
            "tick_minutes": self.config.tick_minutes,
            "sim_time": grid.sim.now,
            "started_sim_time": self.started_sim_time,
            "grid": {
                "n_peers": grid.directory.n_alive,
                "n_instances": grid.catalog.n_instances,
                "generation": grid.directory.generation,
                "peer_store_bytes": store.memory_bytes(),
                "peer_rows_recycled": store.rows_recycled,
                "churn_arrivals": churn.n_arrivals if churn is not None else 0,
                "churn_departures": churn.n_departures if churn is not None else 0,
            },
            "sessions": {
                "active": ledger.n_active,
                "admitted": ledger.n_admitted,
                "completed": ledger.n_completed,
                "failed": ledger.n_failed,
                "released": ledger.n_released,
            },
            "requests": {
                "http": self.n_http_requests,
                "compose": self.n_compose,
                "admitted": self.n_admitted,
                "rejected": self.n_rejected,
                "released": self.n_released,
                "mean_lookup_hops": (
                    self.total_lookup_hops / self.n_compose
                    if self.n_compose
                    else 0.0
                ),
            },
            "caches": {
                "discovery_routed": grid.registry.n_routed_discoveries,
                "qcs_plan_hits": stats.hits if stats is not None else 0,
                "qcs_plan_misses": stats.misses if stats is not None else 0,
            },
            "process": {"rss_kb": _rss_kb()},
            "slo_state": (
                self.observability.engine.worst_state()
                if self.observability is not None
                else None
            ),
        }

    def metrics(self) -> Dict[str, Any]:
        telemetry = self.grid.telemetry
        view = {
            "enabled": telemetry.enabled,
            "events_emitted": telemetry.bus.n_emitted,
            # 0 unless the stream is recorded for export.
            "events_retained": len(telemetry.bus),
            # Emission totals per name, whatever the bus retains.
            "event_counts": dict(telemetry.bus.counts()),
            # Histogram percentiles here are cumulative: they cover the
            # reservoir (first 10k observations) only -- see the
            # "windows" section for the rolling view.
            "metrics": telemetry.metrics.snapshot(),
        }
        if self.observability is not None:
            # Request span trees in the plane's trace index (bounded by
            # observability.RECENT_TRACES; the CI soak job gates it).
            view["traces_retained"] = self.observability.n_traces()
            view["windows"] = self.observability.windows_snapshot()
        return view

    def prometheus(self) -> str:
        """The ``GET /metrics?format=prometheus`` body."""
        from repro.telemetry.exposition import render_prometheus

        plane = self.observability
        return render_prometheus(
            self.grid.telemetry.metrics,
            windows=plane.windows_snapshot() if plane is not None else None,
            slo=plane.engine.as_dict(self.grid.sim.now) if plane is not None else None,
        )

    def slo_view(self) -> Optional[Dict[str, Any]]:
        """The ``GET /slo`` document (None with observability off)."""
        if self.observability is None:
            return None
        return self.observability.slo_view()

    def traces_view(self, limit: int = 10) -> Optional[Dict[str, Any]]:
        """Recent and worst request traces (None with observability off)."""
        if self.observability is None:
            return None
        return {
            "recent": self.observability.recent_traces()[:limit],
            "worst": self.observability.worst_traces(limit),
        }

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One request's span tree (None if unknown or plane off)."""
        if self.observability is None:
            return None
        return self.observability.trace(trace_id)

    def export_telemetry(self) -> int:
        """Write the retained stream to the configured path (0 if none)."""
        if self.config.telemetry_path is None:
            return 0
        return self.grid.telemetry.export_jsonl(self.config.telemetry_path)


class ServeServer:
    """The HTTP face of one :class:`GridRuntime` (single-writer)."""

    def __init__(self, runtime: GridRuntime, host: str, port: int) -> None:
        from repro.serve.http import HttpServer

        self.runtime = runtime
        self._writer = asyncio.Lock()
        #: Set by :meth:`start` (typed loosely: importing Router here
        #: would be circular -- routers binds to this module's runtime).
        self._router: Optional[Any] = None
        self._http = HttpServer(self._handle, host, port)

    @property
    def address(self) -> Tuple[str, int]:
        return self._http.address

    async def start(self) -> None:
        from repro.serve.routers import build_router

        self._router = build_router(self.runtime)
        await self._http.start()

    async def stop(self) -> None:
        await self._http.stop()

    async def _handle(self, request: Any) -> Any:
        # The single-writer discipline: one request mutates/reads the
        # grid at a time, in arrival order.  Determinism in sim mode
        # follows -- the telemetry stream is a pure function of the
        # request trace.
        router = self._router
        assert router is not None, "server not started"
        async with self._writer:
            response, route = await router.dispatch(request)
            self.runtime.note_http(request.method, route, response.status)
            return response

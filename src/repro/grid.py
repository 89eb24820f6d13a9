"""The P2P computing grid facade: every subsystem wired together.

:class:`P2PGrid` assembles the simulation kernel, the peer population,
the network model, the service catalog, the Chord-backed registry, the
probing service, the session ledger and the churn machinery into one
object, and manufactures the three §4.1 aggregation algorithms
(``qsa`` / ``random`` / ``fixed``) against it.

This is the main entry point of the library::

    from repro import GridConfig, P2PGrid

    grid = P2PGrid(GridConfig(n_peers=500, seed=1))
    qsa = grid.make_aggregator("qsa")
    request = grid.make_request(application="video-on-demand",
                                qos_level="high", duration=10.0)
    result = qsa.aggregate(request)
    grid.sim.run(until=60.0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.sim.sanitizer import Sanitizer

import numpy as np

from repro.core.aggregation import BaseAggregator, QSAAggregator
from repro.core.baselines import FixedAggregator, RandomAggregator
from repro.core.resources import WeightProfile
from repro.core.selection import PhiWeights
from repro.faults.backoff import RetryPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.lookup.chord import ChordRing
from repro.lookup.registry import ServiceRegistry
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.probing.prober import ProbingConfig, ProbingService
from repro.services.applications import (
    ApplicationTemplate,
    default_applications,
)
from repro.services.catalog import CatalogConfig, ServiceCatalog, generate_catalog
from repro.services.qoscompiler import QoSCompiler, UserRequest
from repro.services.translator import AnalyticTranslator
from repro.core.selection import PeerSelector
from repro.sessions.recovery import RecoveryConfig, RecoveryManager
from repro.sessions.session import Session, SessionLedger
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.telemetry import Telemetry

__all__ = ["ALGORITHMS", "GridConfig", "P2PGrid"]

#: The §4.1 algorithms :meth:`P2PGrid.make_aggregator` builds by name.
ALGORITHMS = ("qsa", "random", "fixed")


@dataclass(frozen=True)
class GridConfig:
    """Grid-wide parameters; defaults are a laptop-scale version of §4.1.

    Set ``n_peers=10_000`` (and the experiment horizons accordingly) for
    the paper's full scale.
    """

    #: Number of peers at start (paper: 10^4).
    n_peers: int = 2000
    #: End-system resource dimensions (paper: [cpu, memory]).
    resource_names: Tuple[str, ...] = ("cpu", "memory")
    #: A peer's capacity scale is uniform in this range; both dimensions
    #: share the scale (laptop [100,100] ... cluster server [1000,1000]).
    capacity_range: Tuple[float, float] = (100.0, 1000.0)
    #: Aggregate first-hop capacity per peer (bps).  The paper's pairwise
    #: bottleneck classes carry the bandwidth heterogeneity; this uniform
    #: per-peer cap only bounds how many concurrent flows one peer can
    #: terminate (DESIGN.md §4).
    access_capacity: float = 10e6
    #: Peers start with a random prior uptime in [0, this] minutes so the
    #: uptime signal is informative from t = 0.
    initial_uptime_max: float = 120.0
    #: Probing/neighborhood parameters (paper: M = 100, 1-minute period).
    probing: ProbingConfig = field(default_factory=ProbingConfig)
    #: Catalog generation parameters (instances/replicas per §4.1).
    catalog: CatalogConfig = field(default_factory=CatalogConfig)
    #: Churn parameters; ``None`` or rate 0 disables topological variation.
    churn: Optional[ChurnConfig] = None
    #: Runtime failure recovery (the paper's future work, implemented);
    #: ``None`` gives the paper's baseline behaviour -- any provisioning
    #: peer departing fails the whole session.
    recovery: Optional[RecoveryConfig] = None
    #: Chord identifier-space width (§3.2's discovery substrate).
    chord_bits: int = 32
    #: Application templates for the catalog; ``None`` = the paper's ten
    #: (:func:`repro.services.applications.default_applications`).  An
    #: explicit ``applications=`` argument to :class:`P2PGrid` overrides
    #: both.
    applications: Optional[Tuple[ApplicationTemplate, ...]] = None
    #: Full telemetry (``grid.telemetry``): event-bus recording, the
    #: metrics registry and span tracing across every subsystem.  Off by
    #: default -- the bus then runs dispatch-only (request/session events
    #: still reach the metrics layer) and hot paths pay one ``None``
    #: check, nothing more.
    telemetry: bool = False
    #: Retain at most this many bus events (None = unbounded, 0 = none:
    #: full telemetry that only dispatches, as ``repro serve`` runs it
    #: without an export path).
    telemetry_capacity: Optional[int] = None
    #: Fault injection plan; ``None`` (or an empty plan) keeps every
    #: substrate operation reliable and the hot paths fault-check-free.
    faults: Optional[FaultPlan] = None
    #: Retry budget + backoff for faulted DHT lookups.
    lookup_retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Retry budget + backoff for transient admission failures.
    admission_retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Determinism sanitizer (``grid.sanitizer``): per-stream RNG draw
    #: ledger with epoch state hashes, plus a write barrier around peer
    #: and session mutations.  Off by default -- when off, streams are
    #: raw generators and no hook is ever consulted, so telemetry stays
    #: byte-identical.  See docs/static-analysis.md ("The determinism
    #: contract") and ``repro sanitize``.
    sanitize: bool = False
    #: Sim-time width of one sanitizer checkpoint epoch (minutes).
    sanitize_epoch: float = 5.0
    #: Root seed for every RNG stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("need at least two peers")
        lo, hi = self.capacity_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"bad capacity_range ({lo}, {hi})")
        if not 0 < self.access_capacity < math.inf:
            raise ValueError(
                f"access_capacity must be positive and finite, "
                f"got {self.access_capacity}"
            )
        if not 0 <= self.initial_uptime_max < math.inf:
            raise ValueError(
                f"initial_uptime_max must be non-negative and finite, "
                f"got {self.initial_uptime_max}"
            )


class P2PGrid:
    """A fully wired peer-to-peer computing grid simulation."""

    def __init__(
        self,
        config: GridConfig | None = None,
        applications: Optional[Sequence[ApplicationTemplate]] = None,
    ) -> None:
        self.config = config = config or GridConfig()
        self.sim = Simulator()
        #: Optional determinism sanitizer; must exist before the RNG
        #: factory (streams are wrapped at creation) and before the
        #: first peer spawn (the write barrier sees every mutation).
        self.sanitizer: Optional[Sanitizer] = None
        if config.sanitize:
            from repro.sim.sanitizer import Sanitizer as _Sanitizer

            self.sanitizer = _Sanitizer(
                clock=lambda: self.sim.now, epoch=config.sanitize_epoch
            )
            self.sanitizer.begin(config.seed)
        self.rngs = RngStreams(config.seed, sanitizer=self.sanitizer)
        self.applications = list(
            applications or config.applications or default_applications()
        )
        self.translator = AnalyticTranslator(config.resource_names)

        # -- peers -------------------------------------------------------
        self.directory = SoAPeerDirectory(
            config.resource_names, initial_rows=config.n_peers
        )
        self.directory.sanitizer = self.sanitizer
        # One draw call for the population: per peer a prior uptime in
        # [0, initial_uptime_max), then a capacity scale, interleaved as
        # 2N scalar ``uniform`` calls would draw them (same values, same
        # generator state).
        n, (lo, hi) = config.n_peers, config.capacity_range
        draws = self.rngs.stream("peers").uniform(
            np.tile((0.0, lo), n), np.tile((config.initial_uptime_max, hi), n)
        )
        self.directory.create_peers(
            draws[1::2], config.access_capacity, -draws[0::2]
        )

        # -- network ---------------------------------------------------------
        self.network = NetworkModel(self.directory, seed=config.seed)

        # -- services ----------------------------------------------------------
        self.catalog: ServiceCatalog = generate_catalog(
            self.applications,
            self.directory.alive_ids,
            self.rngs.stream("catalog"),
            config.catalog,
            self.translator,
        )
        self.compiler = QoSCompiler.from_templates(
            self.applications, self.rngs.stream("compiler")
        )

        # -- lookup -------------------------------------------------------------
        self.ring = ChordRing(bits=config.chord_bits, seed=config.seed)
        self.ring.join_many(self.directory.alive_ids)
        self.registry = ServiceRegistry(self.ring, self.catalog)

        # -- telemetry ---------------------------------------------------------
        #: Always present: the bus carries the request/session events the
        #: metrics layer subscribes to.  Hot-path instrumentation sites
        #: receive the handle only when enabled (``_tel`` is None
        #: otherwise), so disabled runs record and measure nothing.
        self.telemetry = Telemetry.for_simulator(
            self.sim,
            enabled=config.telemetry,
            capacity=config.telemetry_capacity,
        )
        _tel = self.telemetry if config.telemetry else None
        self.ring.telemetry = _tel
        self.registry.telemetry = _tel

        # -- fault injection ---------------------------------------------------
        #: One injector per run when a non-empty plan is configured; every
        #: hardened subsystem shares it (and its dedicated RNG stream), so
        #: the same (seed, plan) pair replays the same faults.
        self.injector: Optional[FaultInjector] = None
        if config.faults is not None and config.faults.active:
            self.injector = FaultInjector(
                self.sim,
                config.faults,
                self.rngs.stream("faults"),
                telemetry=_tel,
            )
            self.registry.configure_faults(self.injector, config.lookup_retry)

        # -- probing & sessions ----------------------------------------------
        self.probing = ProbingService(
            self.sim, self.directory, self.network, config.probing,
            telemetry=_tel,
            injector=self.injector,
        )
        self.ledger = SessionLedger(
            self.sim,
            self.directory,
            self.network,
            self._session_resolved,
            telemetry=_tel,
            injector=self.injector,
            admission_retry=config.admission_retry,
        )
        self.ledger.sanitizer = self.sanitizer

        # -- weights (Def. 3.1 normalizers from the translator's envelope) --
        self.composition_weights = WeightProfile.uniform(
            config.resource_names,
            resource_maxima=[self.translator.max_resource_demand()]
            * len(config.resource_names),
            bandwidth_max=self.translator.max_bandwidth_demand(),
        )
        self.phi_weights = PhiWeights.uniform(config.resource_names)

        # -- runtime failure recovery (optional extension) -------------------
        self.recovery: Optional[RecoveryManager] = None
        if config.recovery is not None and config.recovery.enabled:
            self.recovery = RecoveryManager(
                self.sim,
                self.directory,
                self.network,
                self.ledger,
                PeerSelector(self.probing, self.phi_weights, telemetry=_tel),
                hosts_of=self.catalog.hosts,
                resolve_neighbors=self.probing.resolve_selection_hops,
                rng=self.rngs.stream("recovery"),
                config=config.recovery,
                telemetry=_tel,
                injector=self.injector,
            )

        # -- churn ----------------------------------------------------------------
        self.churn: Optional[ChurnProcess] = None
        if config.churn is not None and config.churn.rate_per_min > 0:
            self.churn = ChurnProcess(
                self.sim,
                self.directory,
                config.churn,
                spawn_peer=self._spawn_peer_churn,
                on_departure=self._on_peer_departure,
                rng=self.rngs.stream("churn"),
                telemetry=_tel,
            )
            self.churn.start()

        self._next_request_id = 0

    # -- peer lifecycle ----------------------------------------------------------
    def _spawn_peer_churn(self, now: float) -> int:
        """Arrival under churn: resources + replicas + ring membership."""
        rng = self.rngs.stream("churn-arrivals")
        lo, hi = self.config.capacity_range
        # One scale for every dimension, written straight into the row.
        pid = self.directory.create_peer(
            float(rng.uniform(lo, hi)), self.config.access_capacity, now
        )
        self.catalog.assign_new_peer(pid, rng)
        self.registry.peer_joined(pid, self.catalog.hosted_instances(pid))
        return pid

    def _on_peer_departure(self, peer_id: int) -> None:
        """Departure: fail/repair sessions, clean replicas/registry/probing."""
        if self.injector is not None:
            # stale_state faults: the departed peer's soft state may
            # linger in observers' tables (decided before cleanup runs).
            self.injector.note_departure(peer_id)
        if self.recovery is not None:
            self.recovery.on_peer_departure(peer_id)
        else:
            self.ledger.fail_peer(peer_id)
        hosted = self.catalog.hosted_instances(peer_id)
        self.catalog.remove_peer(peer_id)
        self.registry.peer_departed(peer_id, hosted)
        self.probing.drop_peer(peer_id)

    # -- sessions ---------------------------------------------------------------
    def _session_resolved(self, session: Session) -> None:
        # Always dispatched (the bus is dispatch-only when telemetry is
        # off): subscribe to ``session.resolved`` to observe every
        # completion, release and failure.
        self.telemetry.bus.emit(
            "session.resolved",
            session_id=session.session_id,
            request_id=session.request_id,
            state=session.state.value,
            reason=session.failure_reason,
        )

    # -- requests ---------------------------------------------------------------
    def make_request(
        self,
        application: str,
        qos_level: str = "average",
        duration: float = 10.0,
        peer_id: Optional[int] = None,
        out_format: Optional[str] = None,
    ) -> UserRequest:
        """Build a request at the current simulated time."""
        rng = self.rngs.stream("requests")
        if peer_id is None:
            ids = self.directory.alive_ids
            peer_id = ids[int(rng.integers(len(ids)))]
        req = UserRequest(
            request_id=self._next_request_id,
            peer_id=peer_id,
            application=application,
            qos_level=qos_level,
            session_duration=duration,
            arrival_time=self.sim.now,
            out_format=out_format,
        )
        self._next_request_id += 1
        return req

    # -- aggregators ---------------------------------------------------------------
    def make_aggregator(self, name: str, **options) -> BaseAggregator:
        """Build one of the §4.1 algorithms: ``qsa``, ``random``, ``fixed``.

        ``qsa`` accepts ``uptime_filter`` (bool, ablation A1) and
        ``phi_weights`` keyword options; any other option is a
        ``TypeError`` -- nothing is dropped silently.
        """
        rng = self.rngs.stream(f"aggregator-{name}")
        aggregator = self._build_aggregator(name, rng, options)
        if options:
            raise TypeError(
                f"make_aggregator({name!r}) got unexpected option(s): "
                + ", ".join(sorted(options))
            )
        return self.attach_aggregator(aggregator)

    def attach_aggregator(self, aggregator: BaseAggregator) -> BaseAggregator:
        """Connect ``aggregator`` to this grid's event bus and telemetry.

        :meth:`make_aggregator` does this for the named algorithms; an
        aggregator built any other way (the A3 tier hybrids) needs it
        for its ``request.setup`` events to reach the bus.
        """
        aggregator.bus = self.telemetry.bus
        _tel = self.telemetry if self.config.telemetry else None
        aggregator.telemetry = _tel
        selector = getattr(aggregator, "selector", None)
        if selector is not None and _tel is not None:
            selector.telemetry = _tel
        return aggregator

    def _build_aggregator(self, name, rng, options) -> BaseAggregator:
        if name == "qsa":
            return QSAAggregator(
                self.compiler,
                self.registry,
                self.directory,
                self.ledger,
                self.probing,
                self.composition_weights,
                options.pop("phi_weights", self.phi_weights),
                rng,
                uptime_filter=options.pop("uptime_filter", True),
            )
        if name == "random":
            return RandomAggregator(
                self.compiler, self.registry, self.directory, self.ledger,
                self.composition_weights, rng,
            )
        if name == "fixed":
            return FixedAggregator(
                self.compiler, self.registry, self.directory, self.ledger,
                self.composition_weights, rng,
            )
        raise ValueError(
            f"unknown aggregator {name!r} ({'/'.join(ALGORITHMS)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<P2PGrid {self.directory.n_alive} peers, "
            f"{self.catalog.n_instances} instances, t={self.sim.now:.1f}min>"
        )

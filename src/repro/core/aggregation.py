"""The QSA pipeline: request -> composition -> peer selection -> admission.

This module glues the two tiers of the paper's model into the four
protocol steps of §3.2 plus the hop-by-hop selection of §3.3:

1. *Acquire and translate the user request* -- the QoS compiler maps the
   request onto an abstract service path and an end-to-end QoS vector.
2. *Discover service instances* -- one routed DHT lookup per abstract
   service returns candidate specs; one per chosen instance returns
   hosting peers.
3. *Compose a QoS consistent shortest service path* -- QCS.
4. *Deliver the path to the dynamic peer selection tier* -- the
   requesting host resolves the candidate providers into its neighbor
   table (dynamic neighbor resolution) and picks the first-hop peer; each
   selected peer then resolves and picks the next, in the reverse
   direction of the aggregation flow.

Finally the session is admitted atomically; the ledger then owns it.

:class:`BaseAggregator` is the template; the *random* and *fixed*
heuristics of §4.1 subclass it in :mod:`repro.core.baselines`, overriding
only the strategy hooks (``compose`` / ``select_peers``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.composition import ComposedPath, CompositionError
from repro.core.composition_vec import VectorizedComposer
from repro.core.qos import QoSVector
from repro.core.resources import WeightProfile
from repro.core.selection import PeerSelector, PhiWeights
from repro.lookup.registry import ServiceRegistry
from repro.network.soa import SoAPeerDirectory
from repro.probing.prober import ProbingService, SelectionPlan
from repro.services.model import AbstractServicePath, ServiceInstance
from repro.services.qoscompiler import QoSCompiler, UserRequest
from repro.sessions.admission import AdmissionError
from repro.sessions.session import Session, SessionLedger
from repro.telemetry.spans import NULL_TRACER

__all__ = ["AggregationStatus", "AggregationResult", "BaseAggregator", "QSAAggregator"]


class AggregationStatus(enum.Enum):
    """Setup outcome of one aggregation request."""

    ADMITTED = "admitted"
    NO_CANDIDATES = "no-candidates"
    COMPOSITION_FAILED = "composition-failed"
    SELECTION_FAILED = "selection-failed"
    RESOURCES_DENIED = "resources-denied"
    BANDWIDTH_DENIED = "bandwidth-denied"
    #: An injected transient failure outlived its retry budget (fault
    #: injection only; never produced on a fault-free run).
    TRANSIENT_DENIED = "transient-denied"


@dataclass(slots=True)
class AggregationResult:
    """Everything the metrics layer wants to know about a setup attempt."""

    request: UserRequest
    status: AggregationStatus
    session: Optional[Session] = None
    composed: Optional[ComposedPath] = None
    peers: Tuple[int, ...] = ()
    lookup_hops: int = 0
    random_fallbacks: int = 0
    #: Per-hop selection outcomes in selection order (user side first);
    #: populated by QSA, empty for the baselines.  Feed to
    #: :func:`repro.core.explain.explain_result` for a human-readable
    #: decision trace.
    hop_outcomes: Tuple = ()

    @property
    def admitted(self) -> bool:
        return self.status is AggregationStatus.ADMITTED


class BaseAggregator:
    """Template for all three §4.1 algorithms (QSA / random / fixed)."""

    name = "base"
    #: Optional :class:`repro.telemetry.bus.EventBus`; set by the grid
    #: factory.  Always receives one low-volume ``request.setup`` event
    #: per request -- the feed the metrics layer subscribes to -- whether
    #: or not full telemetry is enabled (a dispatch-only bus retains
    #: nothing).
    bus = None
    #: Optional :class:`repro.telemetry.Telemetry`; set by the grid
    #: factory only when telemetry is *enabled* (request spans, QCS
    #: instrumentation, admission-reject counters).
    telemetry = None
    #: Running random-fallback count for the request being aggregated.
    #: Strategies that can fall back (QSA's selector) reset and increment
    #: it; the pipeline copies it into every :class:`AggregationResult`
    #: at construction, which is the single source of truth the
    #: ``request.setup`` event reports.
    _fallbacks = 0

    def __init__(
        self,
        compiler: QoSCompiler,
        registry: ServiceRegistry,
        directory: SoAPeerDirectory,
        ledger: SessionLedger,
        rng: np.random.Generator,
    ) -> None:
        self.compiler = compiler
        self.registry = registry
        self.directory = directory
        self.ledger = ledger
        self.rng = rng

    # -- strategy hooks ------------------------------------------------------
    def compose(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        user_qos: QoSVector,
        request: UserRequest,
    ) -> ComposedPath:
        """Choose the service instances (raise CompositionError to fail)."""
        raise NotImplementedError

    def select_peers(
        self,
        request: UserRequest,
        composed: ComposedPath,
        hosts_selection_order: List[Sequence[int]],
    ) -> Optional[Tuple[int, ...]]:
        """Map instances to peers.

        ``hosts_selection_order[i]`` hosts the instance ``i`` hops from
        the user (i.e. ``composed.instances[-1 - i]``).  Returns peers in
        *flow order* (aligned with ``composed.instances``) or ``None``
        when some hop has no selectable peer.
        """
        raise NotImplementedError

    def _report(self, result: AggregationResult) -> AggregationResult:
        if self.bus is not None:
            req = result.request
            self.bus.emit(
                "request.setup",
                request_id=req.request_id,
                peer=req.peer_id,
                application=req.application,
                level=req.qos_level,
                status=result.status.value,
                admitted=result.admitted,
                lookup_hops=result.lookup_hops,
                random_fallbacks=result.random_fallbacks,
                arrival_time=req.arrival_time,
                duration=req.session_duration,
            )
        return result

    # -- the pipeline ---------------------------------------------------------
    def aggregate(self, request: UserRequest) -> AggregationResult:
        """Run the full setup pipeline for one request."""
        tel = self.telemetry
        if tel is None:
            return self._aggregate(request)
        with tel.tracer.span(
            "request",
            request_id=request.request_id,
            application=request.application,
            algorithm=self.name,
        ):
            return self._aggregate(request)

    def _aggregate(self, request: UserRequest) -> AggregationResult:
        tel = self.telemetry
        tracer = tel.tracer if tel is not None else NULL_TRACER
        path, user_qos = self.compiler.compile(request)

        with tracer.span("lookup.candidates", services=len(path.services)):
            candidates, hops = self.registry.discover_path_candidates(
                path.services, request.peer_id
            )
        if any(not specs for specs in candidates.values()):
            return self._report(AggregationResult(
                request, AggregationStatus.NO_CANDIDATES, lookup_hops=hops
            ))

        try:
            composed = self.compose(path, candidates, user_qos, request)
        except CompositionError:
            return self._report(AggregationResult(
                request, AggregationStatus.COMPOSITION_FAILED, lookup_hops=hops
            ))

        # Host discovery, selection order (user-adjacent instance first).
        # Each hop's candidates are the instance's host record itself
        # (an ascending tuple), not a copy.
        hosts_selection_order: List[Sequence[int]] = []
        with tracer.span("lookup.hosts", instances=len(composed.instances)):
            for inst in reversed(composed.instances):
                hosts, h = self.registry.discover_hosts(
                    inst.instance_id, request.peer_id
                )
                hops += h
                hosts_selection_order.append(hosts)

        peers = self.select_peers(request, composed, hosts_selection_order)
        if peers is None:
            return self._report(AggregationResult(
                request,
                AggregationStatus.SELECTION_FAILED,
                composed=composed,
                lookup_hops=hops,
                random_fallbacks=self._fallbacks,
            ))

        try:
            with tracer.span("admission", peers=len(peers)):
                session = self.ledger.admit(
                    request_id=request.request_id,
                    user_peer=request.peer_id,
                    instances=composed.instances,
                    peers=peers,
                    duration=request.session_duration,
                )
        except AdmissionError as exc:
            status = {
                "resources": AggregationStatus.RESOURCES_DENIED,
                "bandwidth": AggregationStatus.BANDWIDTH_DENIED,
            }.get(exc.stage, AggregationStatus.TRANSIENT_DENIED)
            if self.telemetry is not None:
                self.telemetry.metrics.counter(
                    "session.admission_rejected"
                ).inc()
            return self._report(AggregationResult(
                request, status, composed=composed, peers=peers,
                lookup_hops=hops, random_fallbacks=self._fallbacks,
            ))

        return self._report(AggregationResult(
            request,
            AggregationStatus.ADMITTED,
            session=session,
            composed=composed,
            peers=peers,
            lookup_hops=hops,
            random_fallbacks=self._fallbacks,
        ))


class QSAAggregator(BaseAggregator):
    """The paper's algorithm: QCS composition + Φ/uptime peer selection."""

    name = "qsa"

    def __init__(
        self,
        compiler: QoSCompiler,
        registry: ServiceRegistry,
        directory: SoAPeerDirectory,
        ledger: SessionLedger,
        probing: ProbingService,
        composition_weights: WeightProfile,
        phi_weights: PhiWeights,
        rng: np.random.Generator,
        uptime_filter: bool = True,
    ) -> None:
        super().__init__(compiler, registry, directory, ledger, rng)
        self.probing = probing
        self.composition_weights = composition_weights
        # The QCS kernel: incremental consistency index + plan LRU, held
        # for the aggregator's life so both amortize across requests.
        self.composer = VectorizedComposer(composition_weights)
        self.selector = PeerSelector(
            probing, phi_weights, uptime_filter=uptime_filter
        )

    def compose(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        user_qos: QoSVector,
        request: UserRequest,
    ) -> ComposedPath:
        stats = self.composer.plan_stats
        before_hits, before_misses = stats.hits, stats.misses
        composed = self.composer.compose(
            path, candidates, user_qos, telemetry=self.telemetry
        )
        tel = self.telemetry
        if tel is not None:
            m = tel.metrics
            if stats.hits > before_hits:
                m.counter("cache.qcs_plan.hits").inc(stats.hits - before_hits)
            if stats.misses > before_misses:
                m.counter("cache.qcs_plan.misses").inc(
                    stats.misses - before_misses
                )
        return composed

    def select_peers(
        self,
        request: UserRequest,
        composed: ComposedPath,
        hosts_selection_order: List[Sequence[int]],
    ) -> Optional[Tuple[int, ...]]:
        """Distributed hop-by-hop selection in reverse flow order (§3.3)."""
        self._fallbacks = 0
        self._hop_outcomes = []
        # The candidate lists flattened once per path and host records,
        # not once per walk.
        plan = composed.walk_plan(
            hosts_selection_order, self.probing.selection_plan
        )
        if self.telemetry is None:
            return self._select_walk(
                request, composed, hosts_selection_order, plan
            )
        with self.telemetry.tracer.span(
            "selection", hops=len(composed.instances)
        ):
            return self._select_walk(
                request, composed, hosts_selection_order, plan
            )

    def _select_walk(
        self,
        request: UserRequest,
        composed: ComposedPath,
        hosts_selection_order: List[Sequence[int]],
        plan: SelectionPlan,
    ) -> Optional[Tuple[int, ...]]:
        tel = self.telemetry
        tracer = tel.tracer if tel is not None else NULL_TRACER
        n = len(composed.instances)
        selected_reverse: List[int] = []
        current = request.peer_id
        # Each hop's resolve gets its suffix of the plan as a ready block.
        for i in range(n):
            inst = composed.instances[n - 1 - i]  # i hops from the user
            # Dynamic neighbor resolution: the selecting peer learns the
            # remaining hops' candidate providers (direct neighbors at
            # the requesting host, indirect along the chain) -- and hands
            # what it learned about this hop's own to the selector.
            with tracer.span("probing.resolve", peer=current):
                known = self.probing.resolve_selection_hops(
                    current,
                    hosts_selection_order[i:],
                    direct=(current == request.peer_id),
                    plan=plan[i],
                )
            outcome = self.selector.select_hop(
                selecting_peer=current,
                candidates=hosts_selection_order[i],
                requirement=inst.resources,
                bandwidth_req=inst.bandwidth,
                session_duration=request.session_duration,
                rng=self.rng,
                known=known,
            )
            self._hop_outcomes.append(outcome)
            if outcome.peer_id is None:
                return None
            if outcome.random_fallback:
                self._fallbacks += 1
            selected_reverse.append(outcome.peer_id)
            current = outcome.peer_id
        return tuple(reversed(selected_reverse))

    def aggregate(self, request: UserRequest) -> AggregationResult:
        self._fallbacks = 0
        self._hop_outcomes = []
        result = super().aggregate(request)
        # random_fallbacks is set at result construction (one source of
        # truth with the request.setup event); only the outcome trail is
        # attached post-hoc.
        result.hop_outcomes = tuple(self._hop_outcomes)
        return result

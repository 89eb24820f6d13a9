"""The comparison heuristics of §4.1: *random* and *fixed*.

* **random** -- "randomly chooses a QoS consistent service path (without
  considering the aggregated resource consumption) and randomly selects a
  set of provisioning peers for instantiating the service path."
* **fixed** -- "always picks the same service path for a distributed
  application delivery and chooses the dedicated peers to instantiate the
  service path.  The fixed algorithm actually represents the conventional
  client-server systems."

Both share the discovery/admission pipeline with QSA (same lookup costs,
same atomic admission) and differ only in the two strategy hooks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import BaseAggregator
from repro.core.composition import (
    ComposedPath,
    CompositionError,
    ConsistencyGraph,
)
from repro.core.qos import QoSVector, satisfies
from repro.core.resources import ResourceTuple, WeightProfile
from repro.lookup.registry import ServiceRegistry
from repro.network.soa import SoAPeerDirectory
from repro.services.model import AbstractServicePath, ServiceInstance
from repro.services.qoscompiler import QoSCompiler, UserRequest
from repro.sessions.session import SessionLedger

__all__ = ["RandomAggregator", "FixedAggregator", "random_consistent_path"]


def _viable_nodes(graph: ConsistencyGraph) -> set:
    """Nodes from which the source layer is reachable via consistency edges."""
    source_layer = graph.n_layers - 1
    viable = {(source_layer, j) for j in range(len(graph.layers[source_layer]))}
    for layer in range(source_layer - 1, -1, -1):
        n_here = 1 if layer == 0 else len(graph.layers[layer])
        for i in range(n_here):
            for j, _score, _t in graph.edges.get((layer, i), ()):
                if (layer + 1, j) in viable:
                    viable.add((layer, i))
                    break
    return viable


def random_consistent_path(
    graph: ConsistencyGraph, rng: np.random.Generator
) -> ComposedPath:
    """A uniformly random walk over the *viable* consistency edges.

    Viability pruning guarantees the walk never dead-ends, so the result
    is always a complete QoS-consistent path; resource costs are ignored
    in every choice, exactly as the paper's random heuristic prescribes.
    """
    viable = _viable_nodes(graph)
    if (0, 0) not in viable:
        raise CompositionError(
            f"no QoS-consistent service path for {graph.path.application!r}"
        )
    chosen: List[ServiceInstance] = []
    total = ResourceTuple.zero(graph.weights.resource_names)
    node = (0, 0)
    for layer in range(0, graph.n_layers - 1):
        options = [
            (j, t)
            for j, _score, t in graph.edges.get(node, ())
            if (layer + 1, j) in viable
        ]
        j, t = options[int(rng.integers(len(options)))]
        chosen.append(graph.layers[layer + 1][j])
        total = total + t
        node = (layer + 1, j)
    return ComposedPath(
        instances=tuple(reversed(chosen)),
        total=total,
        score=graph.weights.score(total),
    )


class RandomAggregator(BaseAggregator):
    """Random QoS-consistent path + uniformly random peers."""

    name = "random"

    def __init__(
        self,
        compiler: QoSCompiler,
        registry: ServiceRegistry,
        directory: SoAPeerDirectory,
        ledger: SessionLedger,
        weights: WeightProfile,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(compiler, registry, directory, ledger, rng)
        # Weights are only used to report comparable path scores; they
        # never influence the random choices.
        self.weights = weights

    def compose(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        user_qos: QoSVector,
        request: UserRequest,
    ) -> ComposedPath:
        graph = ConsistencyGraph(path, candidates, user_qos, self.weights)
        return random_consistent_path(graph, self.rng)

    def select_peers(
        self,
        request: UserRequest,
        composed: ComposedPath,
        hosts_selection_order: List[Sequence[int]],
    ) -> Optional[Tuple[int, ...]]:
        selected_reverse: List[int] = []
        for candidates in hosts_selection_order:
            if not candidates:
                return None
            selected_reverse.append(
                candidates[int(self.rng.integers(len(candidates)))]
            )
        return tuple(reversed(selected_reverse))


class FixedAggregator(BaseAggregator):
    """One fixed plan (path + dedicated peers) per (application, format).

    The plan is built lazily on first use: the lexicographically first
    viable QoS-consistent path able to deliver the *highest* satisfiable
    quality for that format, pinned to each instance's lowest-numbered
    hosting peer (the "dedicated server").  Every later request for the
    same (application, format) reuses the plan verbatim -- if a dedicated
    peer has left or is saturated, the request simply fails, which is
    precisely the client-server behaviour the baseline models.
    """

    name = "fixed"

    def __init__(
        self,
        compiler: QoSCompiler,
        registry: ServiceRegistry,
        directory: SoAPeerDirectory,
        ledger: SessionLedger,
        weights: WeightProfile,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(compiler, registry, directory, ledger, rng)
        self.weights = weights
        self._plans: Dict[
            Tuple[str, str], Optional[Tuple[ComposedPath, Tuple[int, ...]]]
        ] = {}

    # -- plan construction ----------------------------------------------------
    def _first_viable_path(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        user_qos: QoSVector,
    ) -> ComposedPath:
        """Deterministic first viable path (ignores resource costs)."""
        graph = ConsistencyGraph(path, candidates, user_qos, self.weights)
        viable = _viable_nodes(graph)
        if (0, 0) not in viable:
            raise CompositionError("no consistent path")
        chosen: List[ServiceInstance] = []
        total = ResourceTuple.zero(self.weights.resource_names)
        node = (0, 0)
        for layer in range(0, graph.n_layers - 1):
            options = [
                (j, t)
                for j, _score, t in graph.edges.get(node, ())
                if (layer + 1, j) in viable
            ]
            j, t = min(options, key=lambda jt: jt[0])
            chosen.append(graph.layers[layer + 1][j])
            total = total + t
            node = (layer + 1, j)
        return ComposedPath(
            instances=tuple(reversed(chosen)),
            total=total,
            score=self.weights.score(total),
        )

    def _build_plan(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        fmt: str,
    ) -> Optional[Tuple[ComposedPath, Tuple[int, ...]]]:
        from repro.core.qos import Interval

        # Prefer a chain able to serve the highest quality so one plan
        # covers as many user levels as possible.
        for min_quality in (3, 2, 1):
            demand = QoSVector(format=fmt, quality=Interval(min_quality, 3))
            try:
                composed = self._first_viable_path(path, candidates, demand)
            except CompositionError:
                continue
            peers = []
            for inst in composed.instances:
                hosts, _h = self.registry.discover_hosts(
                    inst.instance_id, from_peer=0
                )
                if not hosts:
                    return None
                peers.append(min(hosts))
            return composed, tuple(peers)
        return None

    # -- strategy hooks ----------------------------------------------------------
    def compose(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        user_qos: QoSVector,
        request: UserRequest,
    ) -> ComposedPath:
        fmt = user_qos["format"]
        key = (path.application, fmt)
        if key not in self._plans:
            self._plans[key] = self._build_plan(path, candidates, fmt)
        plan = self._plans[key]
        if plan is None:
            raise CompositionError(f"no fixed plan for {key}")
        composed, _peers = plan
        # The fixed path must still satisfy this user's requirement
        # (a plan capped at average quality cannot serve a high request).
        if not satisfies(composed.instances[-1].qout, user_qos):
            raise CompositionError(f"fixed plan for {key} cannot meet {user_qos!r}")
        return composed

    def select_peers(
        self,
        request: UserRequest,
        composed: ComposedPath,
        hosts_selection_order: List[Sequence[int]],
    ) -> Optional[Tuple[int, ...]]:
        plan = self._plans.get((request.application, composed.instances[-1].qout["format"]))
        if plan is None:
            return None
        _composed, peers = plan
        # Dedicated servers must still be members of the grid.
        for pid in peers:
            if not self.directory.is_alive(pid):
                return None
        return peers

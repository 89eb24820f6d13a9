"""The comparison heuristics of §4.1: *random* and *fixed*.

* **random** -- "randomly chooses a QoS consistent service path (without
  considering the aggregated resource consumption) and randomly selects a
  set of provisioning peers for instantiating the service path."
* **fixed** -- "always picks the same service path for a distributed
  application delivery and chooses the dedicated peers to instantiate the
  service path.  The fixed algorithm actually represents the conventional
  client-server systems."

Both share the discovery/admission pipeline with QSA (same lookup costs,
same atomic admission) and differ only in the two strategy hooks.  Both
compose by walking the plan of the QCS composer they hold
(:meth:`~repro.core.composition_vec.VectorizedComposer.walk`): the same
Eq. 1 matrices QSA's shortest path is taken over.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import BaseAggregator
from repro.core.composition import ComposedPath, CompositionError
from repro.core.composition_vec import VectorizedComposer
from repro.core.qos import Interval, QoSVector, satisfies
from repro.core.resources import WeightProfile
from repro.lookup.registry import ServiceRegistry
from repro.network.soa import SoAPeerDirectory
from repro.services.model import AbstractServicePath, ServiceInstance
from repro.services.qoscompiler import QoSCompiler, UserRequest
from repro.sessions.session import SessionLedger

__all__ = ["RandomAggregator", "FixedAggregator"]


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
        # The composer's weights only score the chosen path, so reports
        # stay comparable; they never influence the random choices.
        self.composer = VectorizedComposer(weights)

    def compose(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        user_qos: QoSVector,
        request: UserRequest,
    ) -> ComposedPath:
        """A uniformly random walk over the viable consistency edges."""
        return self.composer.walk(
            path, candidates, user_qos, lambda n: int(self.rng.integers(n))
        )

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
        self.composer = VectorizedComposer(weights)
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
        return self.composer.walk(path, candidates, user_qos, lambda n: 0)

    def _build_plan(
        self,
        path: AbstractServicePath,
        candidates: Dict[str, Tuple[ServiceInstance, ...]],
        fmt: str,
    ) -> Optional[Tuple[ComposedPath, Tuple[int, ...]]]:
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

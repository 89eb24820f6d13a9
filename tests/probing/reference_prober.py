"""Executable specification of the probing plane (one target at a time).

This is the scalar plane ``repro.probing.prober`` ran until PR 23 --
for every run with a fault injector attached, and for the object
directory -- kept test-side, verbatim, as the reference the array plane
must match: one ``_Snapshot`` object per probed peer in a dict, a
per-target ``observe`` (a one-entry table read,
``tests/probing/flood.py::get``, partition check, lazy epoch
snapshot, ghost fallback, departure pruning) and the per-object retry /
degrade loop of ``_probe_with_faults``.  ``observe_block`` here is only
the stacking of those scalar observations into the block the selector
consumes, so the selection arithmetic downstream is shared and any
difference is the prober's.

It reads peers through the directory's read-only row views (``get`` /
``available`` / ``avail_up`` / ``avail_down`` / ``joined_at``) and never
touches the store's ``snap_*`` arrays.  ``patch_prober`` injects it into
``P2PGrid`` the way ``tests/core/reference_kernels.py::patch_compose``
injects kernels; ``tests/probing/test_prober_equivalence.py`` and the
whole-run differentials under ``tests/perf/`` drive both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.resources import ResourceVector
from repro.core.selection import ObservedBlock, PeerInfo
from repro.probing.prober import ProbingService
from tests.probing.flood import get

__all__ = ["PROBERS", "ReferenceProber", "patch_prober"]


#: Sentinel: the probe failed this epoch but the peer is not known dead.
_LOST = object()


@dataclass
class _Snapshot:
    epoch: int
    availability: np.ndarray
    avail_up: float
    uptime: float
    #: True when the refresh failed and these are a prior epoch's values.
    stale: bool = False


class ReferenceProber(ProbingService):
    """``ProbingService`` with the scalar observation plane."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._snapshots: Dict[int, _Snapshot] = {}

    def drop_peer(self, peer_id: int) -> None:
        """Forget a departed peer everywhere (lazy tables stay lazy)."""
        self._tables.pop(peer_id, None)
        inj = self.injector
        if inj is None or not inj.ghost_active(peer_id):
            self._snapshots.pop(peer_id, None)
        # A ghost-active peer keeps its last snapshot: the stale_state
        # fault makes observers serve it until the lingering soft state
        # expires.  Entries pointing *to* the departed peer are pruned
        # lazily on observe() (observers discover the death on probe).

    def _take_snapshot(self, peer, target: int, epoch: int) -> _Snapshot:
        snap = _Snapshot(
            epoch=epoch,
            availability=peer.available.values.copy(),
            avail_up=peer.avail_up,
            uptime=max(0.0, self.sim.now - peer.joined_at),
        )
        self._snapshots[target] = snap
        tel = self.telemetry
        if tel is not None:
            tel.bus.emit("probe.refresh", target=target, epoch=epoch)
        return snap

    def _snapshot(self, target: int):
        """The current-epoch snapshot of ``target``.

        Returns ``None`` when the peer is dead, the sentinel ``_LOST``
        when the probe failed this epoch but the peer may still be
        alive, or a (possibly stale) :class:`_Snapshot` otherwise.
        """
        peer = self.directory.get(target)
        if peer is None:
            return None
        epoch = int(self.sim.now / self.config.period)
        snap = self._snapshots.get(target)
        if snap is not None and snap.epoch == epoch:
            return snap
        inj = self.injector
        if inj is None:
            self._record_probe()
            return self._take_snapshot(peer, target, epoch)
        return self._probe_with_faults(peer, target, epoch, snap, inj)

    def _probe_with_faults(self, peer, target, epoch, prev, inj):
        """One refresh under fault injection: timeout, retry, degrade."""
        retry = self.config.retry
        attempts = 0
        while True:
            self._record_probe()
            lost = inj.probe_lost(target)
            if not lost:
                delay = inj.probe_delay(target)
                if delay <= self.config.timeout:
                    return self._take_snapshot(peer, target, epoch)
                # The reply missed the timeout window: count as a loss.
            attempts += 1
            if attempts > retry.max_retries:
                inj.retry_exhausted("probe", attempts=attempts, target=target)
                if prev is not None:
                    # Degrade to the previous epoch's values; marking the
                    # current epoch avoids re-burning the budget on every
                    # observe() within it.
                    prev.epoch = epoch
                    prev.stale = True
                    return prev
                return _LOST
            inj.retry_attempt(
                "probe", attempts, retry.delay(attempts, inj.rng),
                target=target,
            )

    def observe(self, observer: int, target: int) -> Optional[PeerInfo]:
        """The observer's (stale, bounded) view of target; None if unknown."""
        tbl = self._tables.get(observer)
        if tbl is None:
            return None
        entry = get(tbl, target, self.sim.now)
        if entry is None:
            return None
        inj = self.injector
        if inj is not None and inj.partitioned(observer, target):
            # The probe cannot cross the cut; the entry stays (soft
            # state survives a partition, unlike a discovered death).
            inj.inject("partition", "probe", observer=observer, target=target)
            return None
        snap = self._snapshot(target)
        if snap is _LOST:
            return None  # probe failed; keep the entry, report unknown
        if snap is None and inj is not None and inj.ghost_active(target):
            # stale_state fault: the departure has not propagated yet, so
            # the observer still trusts the last snapshot it holds.
            snap = self._snapshots.get(target)
        if snap is None:
            tbl.drop(target)  # probe discovered the departure
            self._snapshots.pop(target, None)
            return None
        observer_peer = self.directory.get(observer)
        observer_down = (
            observer_peer.avail_down if observer_peer is not None else float("inf")
        )
        pair_avail = self.network.pair_capacity(target, observer) - (
            self.network.pair_reserved(target, observer)
        )
        beta = max(0.0, min(pair_avail, snap.avail_up, observer_down))
        return self._peer_info(
            target, snap.availability, beta, snap.uptime,
            self.network.latency_ms(target, observer),
        )

    def _peer_info(self, target, values, beta, uptime, latency) -> PeerInfo:
        availability = ResourceVector.__new__(ResourceVector)
        availability.names = self.directory.resource_names
        availability.values = values
        return PeerInfo(target, availability, beta, uptime, latency)

    def observe_block(
        self,
        observer: int,
        targets: Sequence[int],
        latency: bool = False,
        known: Optional[np.ndarray] = None,
    ) -> ObservedBlock:
        """The scalar observations of ``targets``, in order, stacked.
        ``known`` is ignored: every target asks the table itself."""
        infos = [self.observe(observer, target) for target in targets]
        at = [i for i, info in enumerate(infos) if info is not None]
        m = len(self.directory.resource_names)
        return (
            np.array(at, dtype=np.intp),
            np.array(
                [infos[i].availability.values for i in at], dtype=np.float64
            ).reshape(-1, m),
            np.array([infos[i].bandwidth_to_observer for i in at], np.float64),
            np.array([infos[i].uptime for i in at], np.float64),
            np.array([infos[i].latency for i in at], np.float64)
            if latency else None,
        )


#: Whole-run differentials name the prober a run uses by these keys.
PROBERS = {"production": ProbingService, "reference": ReferenceProber}


def patch_prober(monkeypatch, name: str) -> None:
    """Make every ``P2PGrid`` built under ``monkeypatch`` probe with
    ``PROBERS[name]``; ``"production"`` patches nothing."""
    if name != "production":
        monkeypatch.setattr("repro.grid.ProbingService", PROBERS[name])

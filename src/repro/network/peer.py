"""Peers: heterogeneous end-systems with capacity, uptime and access links.

Paper §4.1: "Each peer is randomly assigned an initial resource
availability RA = [cpu, memory], ranging from [100,100] to [1000,1000]
units.  Different units reflect the heterogeneity in P2P systems" --
a laptop is ~[100,100], a desktop ~[500,500], a cluster server
~[1000,1000].

A :class:`Peer` tracks

* ``capacity``  -- the fixed end-system resource vector,
* ``available`` -- capacity minus active reservations,
* ``access_bw`` -- the access-link rate (one of the evaluation's
  bandwidth classes), with separate up/down residual counters, and
* ``joined_at`` -- for uptime (= ``now - joined_at``), the peer-selection
  longevity signal.

Live peers are rows of :class:`repro.network.soa.PeerStore`, reached
through :class:`repro.network.soa.SoAPeerDirectory` (which owns the id
space and the alive set); a :class:`Peer` object is what a departed
peer's final state is frozen into -- the tombstone that session rollback
credits after its row has been recycled.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.resources import ResourceVector

__all__ = ["Peer"]


class Peer:
    """One peer host."""

    __slots__ = (
        "peer_id",
        "capacity",
        "available",
        "access_bw",
        "avail_up",
        "avail_down",
        "joined_at",
        "departed_at",
    )

    def __init__(
        self,
        peer_id: int,
        capacity: ResourceVector,
        access_bw: float,
        joined_at: float = 0.0,
    ) -> None:
        self.peer_id = peer_id
        self.capacity = capacity
        self.available = capacity.copy()
        if access_bw <= 0:
            raise ValueError(f"peer {peer_id}: access bandwidth must be positive")
        self.access_bw = float(access_bw)
        self.avail_up = float(access_bw)
        self.avail_down = float(access_bw)
        self.joined_at = float(joined_at)
        self.departed_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.departed_at is None

    def uptime(self, now: float) -> float:
        """Time connected to the grid so far (paper's peer-selection metric)."""
        end = self.departed_at if self.departed_at is not None else now
        return max(0.0, end - self.joined_at)

    # -- end-system resource accounting -----------------------------------
    def can_fit(self, requirement: ResourceVector) -> bool:
        return self.available.covers(requirement)

    def reserve(self, requirement: ResourceVector) -> bool:
        """Atomically reserve ``requirement``; False if it does not fit."""
        if not self.available.covers(requirement):
            return False
        self.available.values -= requirement.values
        return True

    def release(self, requirement: ResourceVector) -> None:
        self.available.values += requirement.values
        # Guard against release/reserve mismatches inflating capacity.
        if np.any(self.available.values > self.capacity.values + 1e-9):
            raise ValueError(
                f"peer {self.peer_id}: release exceeds capacity "
                f"(avail={self.available.values}, cap={self.capacity.values})"
            )

    # -- access-link accounting ---------------------------------------------
    def reserve_up(self, bw: float) -> bool:
        if bw > self.avail_up + 1e-9:
            return False
        self.avail_up -= bw
        return True

    def reserve_down(self, bw: float) -> bool:
        if bw > self.avail_down + 1e-9:
            return False
        self.avail_down -= bw
        return True

    def release_up(self, bw: float) -> None:
        self.avail_up = min(self.avail_up + bw, self.access_bw)

    def release_down(self, bw: float) -> None:
        self.avail_down = min(self.avail_down + bw, self.access_bw)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "departed"
        return f"<Peer {self.peer_id} {state} avail={self.available.values}>"

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

import numpy as np

from repro.core.resources import ResourceVector

__all__ = ["Peer"]


class Peer:
    """One peer host's state, as a departed peer's tombstone holds it.

    :meth:`~repro.network.soa.SoAPeerDirectory.depart` fills the slots;
    the ``release*`` methods are the rollback credits.  ``alive`` and
    ``reserve*`` answer the admission, recovery and link reservations
    that reach a departed peer's tombstone.
    """

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

    @property
    def alive(self) -> bool:
        return self.departed_at is None

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

"""The dict-of-objects peer directory: the model the SoA directory is held to.

This is the ``PeerDirectory`` that lived in ``src/repro/network/peer.py``
until the struct-of-arrays store replaced it, verbatim: one peer object
per host in a dict, departed
corpses kept forever, ``alive_ids`` an ascending list edited in place.
``tests/network/test_alive_set.py`` drives it and
:class:`~repro.network.soa.SoAPeerDirectory` through the same schedules;
nothing under ``src/`` imports it.  Its peers are :class:`ScalarPeer`
objects: the scalar ``Peer`` of ``src/repro/network/peer.py`` with its
reservation methods, kept here as the model of the directory's ledger
rules (``tests/sessions/reference_admission.py`` replays admission on
it) after production kept peer state only in the store's rows.
"""

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector

__all__ = ["PeerDirectory", "ScalarPeer", "availability_matrix"]


class ScalarPeer:
    """One peer host as an object (paper §4.1: a resource vector
    RA = [cpu, memory] and an access link), the model of one
    :class:`~repro.network.soa.PeerStore` row and of the directory's
    ledger rules over it.

    * ``capacity``  -- the fixed end-system resource vector,
    * ``available`` -- capacity minus active reservations,
    * ``access_bw`` -- the access-link rate, with separate up/down
      residual counters, and
    * ``joined_at`` -- for uptime (= ``now - joined_at``).
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

    def __init__(
        self,
        peer_id: int,
        capacity: ResourceVector,
        access_bw: float,
        joined_at: float = 0.0,
    ) -> None:
        self.peer_id = peer_id
        self.capacity = capacity
        self.available = ResourceVector(capacity.names, capacity.values)
        if access_bw <= 0:
            raise ValueError(f"peer {peer_id}: access bandwidth must be positive")
        self.access_bw = float(access_bw)
        self.avail_up = float(access_bw)
        self.avail_down = float(access_bw)
        self.joined_at = float(joined_at)
        self.departed_at: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.departed_at is None

    def uptime(self, now: float) -> float:
        """Time connected to the grid so far (paper's peer-selection metric)."""
        end = self.departed_at if self.departed_at is not None else now
        return max(0.0, end - self.joined_at)

    def can_fit(self, requirement: ResourceVector) -> bool:
        return bool((self.available.values >= requirement.values).all())

    def reserve(self, requirement: ResourceVector) -> bool:
        """Atomically reserve ``requirement``; False if it does not fit."""
        if not self.can_fit(requirement):
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


class PeerDirectory:
    """The id space and alive-set of the grid, with vectorized views."""

    def __init__(self, resource_names: Sequence[str] = ("cpu", "memory")) -> None:
        self.resource_names = tuple(resource_names)
        self._peers: Dict[int, ScalarPeer] = {}
        #: Alive ids, ascending (ids are allocated monotonically).
        self._alive_ids: List[int] = []
        self._next_id = 0
        #: Membership generation: bumped on every create/depart, mirrors
        #: :attr:`repro.network.soa.PeerStore.generation`.
        self.generation = 0
        #: Optional :class:`repro.sim.sanitizer.Sanitizer` write barrier.
        self.sanitizer = None

    # -- population ----------------------------------------------------------
    def create_peer(
        self, capacity: ResourceVector, access_bw: float, joined_at: float
    ) -> int:
        pid = self._next_id
        self._next_id += 1
        peer = ScalarPeer(pid, capacity, access_bw, joined_at)
        self._peers[pid] = peer
        self._alive_ids.append(pid)
        self.generation += 1
        if self.sanitizer is not None:
            self.sanitizer.note_write("network", "peer-create", self.generation)
        return pid

    def depart(self, peer_id: int, now: float) -> ScalarPeer:
        peer = self._peers[peer_id]
        if not peer.alive:
            raise ValueError(f"peer {peer_id} already departed")
        peer.departed_at = now
        del self._alive_ids[bisect_left(self._alive_ids, peer_id)]
        self.generation += 1
        if self.sanitizer is not None:
            self.sanitizer.note_write("network", "peer-depart", self.generation)
        return peer

    # -- lookup ----------------------------------------------------------
    def __getitem__(self, peer_id: int) -> ScalarPeer:
        return self._peers[peer_id]

    def get(self, peer_id: int) -> Optional[ScalarPeer]:
        return self._peers.get(peer_id)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def is_alive(self, peer_id: int) -> bool:
        peer = self._peers.get(peer_id)
        return peer is not None and peer.alive

    @property
    def alive_ids(self) -> List[int]:
        """Ids of currently alive peers, ascending (maintained in place)."""
        return self._alive_ids

    @property
    def n_alive(self) -> int:
        return len(self._alive_ids)

    def alive_peers(self) -> Iterator[ScalarPeer]:
        return (self._peers[pid] for pid in self.alive_ids)

    # -- vectorized views ---------------------------------------------------
    def uptimes(self, now: float) -> Tuple[np.ndarray, List[int]]:
        """``(uptimes, ids)`` arrays over alive peers, aligned."""
        ids = self.alive_ids
        up = np.fromiter(
            (now - self._peers[pid].joined_at for pid in ids),
            dtype=np.float64,
            count=len(ids),
        )
        return up, ids

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PeerDirectory {self.n_alive} alive / {len(self._peers)} total>"


def availability_matrix(directory, peer_ids: Iterable[int]) -> np.ndarray:
    """Rows of ``available`` vectors for the given peers, of either
    directory (a :class:`PeerDirectory` answers for departed ones too)."""
    rows = [directory[pid].available.values for pid in peer_ids]
    if not rows:
        return np.empty((0, len(directory.resource_names)))
    return np.stack(rows)

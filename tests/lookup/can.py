"""A CAN distributed hash table (Ratnasamy et al., SIGCOMM 2001).

The paper's discovery step invokes "Chord [20] or CAN [16]"; the library
runs on Chord, and this test-side module provides the CAN half so the
claim that discovery is a black box can be checked: it satisfies
:class:`repro.lookup.registry.DhtProtocol`, and a test or bench puts it
under a grid by monkeypatching the ring factory with :func:`can_ring`::

    monkeypatch.setattr(repro.grid, "ChordRing", can_ring)

Model
-----
* The key space is the ``d``-dimensional unit torus ``[0,1)^d``; keys and
  joining peers hash to points in it.
* Every node owns one or more axis-aligned **zones** (boxes).  A join
  routes to the zone containing the new peer's point; that zone splits in
  half along its longest dimension and the half containing the point —
  with the keys living inside it — moves to the new node.  A leave hands
  each zone (and its keys) to the smallest-volume adjacent neighbor,
  which then temporarily manages multiple zones, exactly as the CAN paper
  allows before background defragmentation.
* **Greedy routing**: a lookup repeatedly forwards to the neighbor whose
  zone is closest (torus distance) to the key's point, counting
  application-level hops; expected path length is O(d · N^(1/d)).

Neighbor sets are recomputed from zone adjacency after each membership
event (O(N) per event).  That is the converged state the real protocol's
update messages maintain; the simplification mirrors the Chord module's
derived fingers and is recorded in DESIGN.md §4.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = ["Zone", "CanNode", "CanNetwork", "can_ring", "check_can"]


def _hash_floats(label: str, d: int) -> np.ndarray:
    """Hash a label to a point in [0,1)^d."""
    out = np.empty(d)
    for k in range(d):
        digest = hashlib.blake2b(
            f"{label}/{k}".encode("utf-8"), digest_size=8
        ).digest()
        out[k] = int.from_bytes(digest, "little") / 2**64
    return out


@dataclass
class Zone:
    """An axis-aligned box ``[lo, hi)`` inside the unit torus."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo/hi dimension mismatch")
        if np.any(self.lo >= self.hi):
            raise ValueError(f"empty zone: lo={self.lo}, hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    def contains(self, point: np.ndarray) -> bool:
        return bool(np.all(point >= self.lo) and np.all(point < self.hi))

    def split(self) -> Tuple["Zone", "Zone"]:
        """Halve along the longest dimension (lowest index on ties)."""
        extents = self.hi - self.lo
        k = int(np.argmax(extents))
        mid = (self.lo[k] + self.hi[k]) / 2.0
        lo2, hi1 = self.lo.copy(), self.hi.copy()
        hi1[k] = mid
        lo2[k] = mid
        return Zone(self.lo.copy(), hi1), Zone(lo2, self.hi.copy())

    def distance_to(self, point: np.ndarray) -> float:
        """Torus L2 distance from the box to a point (0 if inside)."""
        gaps = np.zeros(self.dim)
        for k in range(self.dim):
            x = point[k]
            if self.lo[k] <= x < self.hi[k]:
                continue
            d_lo = min(abs(x - self.lo[k]), 1.0 - abs(x - self.lo[k]))
            d_hi = min(abs(x - self.hi[k]), 1.0 - abs(x - self.hi[k]))
            gaps[k] = min(d_lo, d_hi)
        return float(np.sqrt(np.sum(gaps**2)))

    def adjacent(self, other: "Zone") -> bool:
        """Do the zones abut on the torus (share a (d-1)-face)?"""
        abutting_dims = 0
        for k in range(self.dim):
            a_lo, a_hi = self.lo[k], self.hi[k]
            b_lo, b_hi = other.lo[k], other.hi[k]
            abut = (
                a_hi == b_lo
                or b_hi == a_lo
                or (a_hi == 1.0 and b_lo == 0.0)
                or (b_hi == 1.0 and a_lo == 0.0)
            )
            overlap = max(a_lo, b_lo) < min(a_hi, b_hi)
            if abut and not overlap:
                abutting_dims += 1
            elif not overlap:
                return False  # separated in this dimension
        return abutting_dims == 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        spans = ", ".join(
            f"[{lo:.3g},{hi:.3g})" for lo, hi in zip(self.lo, self.hi)
        )
        return f"Zone({spans})"


class CanNode:
    """One CAN member: its zones, keys and current neighbor set."""

    __slots__ = ("peer_id", "zones", "store", "neighbors")

    def __init__(self, peer_id: int, zones: List[Zone]) -> None:
        self.peer_id = peer_id
        self.zones = zones
        self.store: Dict[str, Any] = {}
        self.neighbors: Set[int] = set()

    def owns(self, point: np.ndarray) -> bool:
        return any(z.contains(point) for z in self.zones)

    def distance_to(self, point: np.ndarray) -> float:
        return min(z.distance_to(point) for z in self.zones)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CanNode peer={self.peer_id} zones={len(self.zones)}>"


class CanNetwork:
    """The CAN overlay: membership, storage and greedy routing."""

    #: Optional :class:`repro.telemetry.Telemetry`; set by the grid when
    #: telemetry is enabled (per-lookup hop events + histograms).
    telemetry = None

    def __init__(self, dimensions: int = 2, seed: int = 0) -> None:
        if not 1 <= dimensions <= 10:
            raise ValueError("CAN dimensionality must be 1..10")
        self.d = dimensions
        self.seed = seed
        self._nodes: Dict[int, CanNode] = {}
        self.n_lookups = 0
        self.total_hops = 0

    # -- hashing ------------------------------------------------------------
    def point_for_key(self, key: str) -> np.ndarray:
        return _hash_floats(f"{self.seed}/key/{key}", self.d)

    def point_for_peer(self, peer_id: int) -> np.ndarray:
        return _hash_floats(f"{self.seed}/peer/{peer_id}", self.d)

    # -- membership ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._nodes

    def peers(self) -> List[int]:
        return list(self._nodes)

    def _owner(self, point: np.ndarray) -> CanNode:
        for node in self._nodes.values():
            if node.owns(point):
                return node
        raise RuntimeError("point owned by no zone (space fragmented?)")

    def join(self, peer_id: int) -> CanNode:
        """Join at the zone containing the peer's hashed point."""
        if peer_id in self._nodes:
            raise ValueError(f"peer {peer_id} already in the CAN")
        if not self._nodes:
            node = CanNode(
                peer_id, [Zone(np.zeros(self.d), np.ones(self.d))]
            )
            self._nodes[peer_id] = node
            return node
        point = self.point_for_peer(peer_id)
        owner = self._owner(point)
        zone_idx = next(
            i for i, z in enumerate(owner.zones) if z.contains(point)
        )
        keep, give = owner.zones[zone_idx].split()
        if give.contains(point):
            keep, give = keep, give
        else:
            keep, give = give, keep
        owner.zones[zone_idx] = keep
        node = CanNode(peer_id, [give])
        self._nodes[peer_id] = node
        # Key handoff: everything in the new node's half moves.
        moving = [
            k for k in owner.store if give.contains(self.point_for_key(k))
        ]
        for k in moving:
            node.store[k] = owner.store.pop(k)
        self._recompute_neighbors({owner.peer_id, peer_id})
        return node

    def join_many(self, peer_ids) -> List[CanNode]:
        """:meth:`join` for every peer, in order."""
        return [self.join(pid) for pid in peer_ids]

    def leave(self, peer_id: int) -> None:
        """Hand each zone to its smallest adjacent neighbor."""
        node = self._nodes.pop(peer_id, None)
        if node is None:
            raise KeyError(f"peer {peer_id} is not in the CAN")
        if not self._nodes:
            return  # the space empties with the last node
        touched = set()
        for zone in node.zones:
            candidates = [
                other
                for other in self._nodes.values()
                if any(zone.adjacent(z) or z.adjacent(zone)
                       for z in other.zones)
            ]
            if not candidates:  # disconnected fragment: give to anyone
                candidates = list(self._nodes.values())
            taker = min(
                candidates,
                key=lambda n: (sum(z.volume for z in n.zones), n.peer_id),
            )
            taker.zones.append(zone)
            touched.add(taker.peer_id)
        # Keys follow their zones.
        for k, v in node.store.items():
            self._owner(self.point_for_key(k)).store[k] = v
        self._recompute_neighbors(touched)

    def _recompute_neighbors(self, changed: Set[int]) -> None:
        """Refresh adjacency for changed nodes and everyone near them."""
        affected = set(changed)
        for pid in changed:
            node = self._nodes.get(pid)
            if node is not None:
                affected |= node.neighbors
        for pid in affected:
            node = self._nodes.get(pid)
            if node is None:
                continue
            node.neighbors = set()
            for other in self._nodes.values():
                if other.peer_id == pid:
                    continue
                if any(
                    za.adjacent(zb)
                    for za in node.zones
                    for zb in other.zones
                ):
                    node.neighbors.add(other.peer_id)
        # Symmetrize (adjacency is symmetric, but zones changed hands).
        for pid in affected:
            node = self._nodes.get(pid)
            if node is None:
                continue
            for nb in node.neighbors:
                self._nodes[nb].neighbors.add(pid)
            # Drop stale reverse edges pointing at us from non-neighbors.
        for other in self._nodes.values():
            if other.peer_id in affected:
                continue
            for pid in list(other.neighbors):
                if pid not in self._nodes:
                    other.neighbors.discard(pid)
                elif pid in affected and other.peer_id not in self._nodes[
                    pid
                ].neighbors:
                    other.neighbors.discard(pid)

    # -- storage ----------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._owner(self.point_for_key(key)).store[key] = value

    def put_many(self, keys, values) -> None:
        for key, value in zip(keys, values):
            self.put(key, value)

    def update(self, key: str, fn) -> Any:
        node = self._owner(self.point_for_key(key))
        node.store[key] = value = fn(node.store.get(key))
        return value

    # -- routing ------------------------------------------------------------
    def lookup(self, key: str, from_peer: int) -> Tuple[CanNode, int]:
        """Greedy-route to the key's owner; returns ``(node, hops)``."""
        if not self._nodes:
            raise RuntimeError("CAN is empty")
        point = self.point_for_key(key)
        start = self._nodes.get(from_peer)
        hops = 0
        if start is None:
            # Bootstrap through the owner of the requester's hashed point.
            start = self._owner(self.point_for_peer(from_peer))
            hops += 1
        current = start
        visited = {current.peer_id}
        while not current.owns(point):
            best: Optional[CanNode] = None
            best_d = current.distance_to(point)
            for nb in current.neighbors:
                node = self._nodes.get(nb)
                if node is None or node.peer_id in visited:
                    continue
                d = node.distance_to(point)
                if best is None or d < best_d:
                    best, best_d = node, d
            if best is None:
                # Perimeter fallback: any unvisited neighbor keeps the
                # query alive (CAN's stateless routing does the same).
                fallback = [
                    self._nodes[nb]
                    for nb in current.neighbors
                    if nb in self._nodes and nb not in visited
                ]
                if not fallback:
                    raise RuntimeError(
                        f"routing stuck at peer {current.peer_id} for {key!r}"
                    )
                best = min(fallback, key=lambda n: n.distance_to(point))
            current = best
            visited.add(current.peer_id)
            hops += 1
        self.n_lookups += 1
        self.total_hops += hops
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("lookup.count").inc()
            tel.metrics.histogram("lookup.hops").observe(hops)
            tel.bus.emit(
                "lookup.done",
                key=key, from_peer=from_peer, hops=hops, protocol="can",
            )
        return current, hops

    def get(self, key: str, from_peer: int) -> Tuple[Any, int]:
        node, hops = self.lookup(key, from_peer)
        return node.store.get(key), hops

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.n_lookups if self.n_lookups else 0.0

    # -- invariants (used by tests) ------------------------------------------
    def total_volume(self) -> float:
        return sum(
            z.volume for node in self._nodes.values() for z in node.zones
        )


def can_ring(bits: int, seed: int) -> CanNetwork:
    """A 3-d CAN with ``ChordRing``'s constructor signature.

    Monkeypatched over ``repro.grid.ChordRing`` it puts a grid on CAN
    (``bits`` is Chord's identifier width and is ignored).
    """
    return CanNetwork(dimensions=3, seed=seed)


def check_can(net: CanNetwork) -> List[str]:
    """CAN invariants: zone volumes tile the space, neighbor sets symmetric.

    Returns human-readable findings (empty = clean), in the style of
    :func:`repro.diagnostics.check_grid_invariants`.
    """
    problems: List[str] = []
    volume = net.total_volume()
    if abs(volume - 1.0) > 1e-9:
        problems.append(f"CAN: zone volumes sum to {volume}, expected 1.0")
    for node in net._nodes.values():
        for nb in node.neighbors:
            other = net._nodes.get(nb)
            if other is None:
                problems.append(
                    f"CAN: node {node.peer_id} lists departed neighbor {nb}"
                )
            elif node.peer_id not in other.neighbors:
                problems.append(
                    f"CAN: neighbor edge {node.peer_id}->{nb} not symmetric"
                )
    return problems

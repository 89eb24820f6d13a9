"""A Chord distributed hash table (Stoica et al., SIGCOMM 2001).

This is the discovery substrate the paper plugs in by reference.  The
implementation covers the pieces the aggregation model exercises:

* an ``m``-bit circular identifier space; peers and keys are hashed onto
  it with BLAKE2b;
* **successor responsibility**: key ``k`` lives on the first node whose
  id is >= ``k`` (mod 2^m);
* **per-node storage with handoff**: a joining node takes over the keys
  it becomes responsible for from its successor; a leaving node hands its
  keys to its successor (so records survive churn, as Chord prescribes);
* **greedy finger routing**: node ``n``'s ``i``-th finger is
  ``successor(n + 2^i)``; a lookup repeatedly forwards to the closest
  preceding finger and counts application-level hops, giving the
  classic O(log N) hop behaviour (verified by the ``bench_chord_lookup``
  bench and unit tests).

Fingers are *computed per hop from the sorted id list* (equivalent to a
fully converged stabilization protocol) rather than stored or
incrementally maintained -- the simplification and its rationale are
recorded in DESIGN.md §4.  No finger table and no route memo exist, so
a membership change has nothing to invalidate and every lookup takes
the same path.  Ring membership itself is explicit: ``join_many`` /
``leave`` mutate a sorted id list (one sort for a block of joiners; a
bisect plus a C-speed splice for one joiner or leaver).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["ChordNode", "ChordRing"]


def _hash_to_id(label: str, bits: int) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (1 << bits)


class ChordNode:
    """One ring member: identifier plus locally stored records."""

    __slots__ = ("node_id", "peer_id", "store")

    def __init__(self, node_id: int, peer_id: int) -> None:
        self.node_id = node_id
        self.peer_id = peer_id
        self.store: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChordNode peer={self.peer_id} id={self.node_id:#x}>"


class ChordRing:
    """The ring: membership, responsibility, storage and routing.

    All of it hangs off one sorted id list: responsibility is a bisect,
    and each greedy routing step computes its finger per hop from that
    list (:meth:`_walk`), so membership changes splice the list and
    invalidate nothing.
    """

    #: Optional :class:`repro.telemetry.Telemetry`; set by the grid when
    #: telemetry is enabled (per-lookup hop events + histograms).
    telemetry = None
    #: Entry cap of the key -> key id memo.
    KEY_ID_CAP = 1 << 16

    def __init__(self, bits: int = 32, seed: int = 0) -> None:
        if not 8 <= bits <= 64:
            raise ValueError("identifier space must be 8..64 bits")
        self.bits = bits
        self.seed = seed
        self._ids: List[int] = []            # sorted node ids
        self._nodes: Dict[int, ChordNode] = {}  # node id -> node
        self._peer_to_id: Dict[int, int] = {}   # peer id -> node id
        #: key -> key_id memo (pure function of the key for a fixed seed).
        self._key_ids: Dict[str, int] = {}
        #: Routing statistics.
        self.n_lookups = 0
        self.total_hops = 0

    # -- hashing ------------------------------------------------------------
    def node_id_for(self, peer_id: int) -> int:
        return _hash_to_id(f"{self.seed}/peer/{peer_id}", self.bits)

    def _hash_ids(self, kind: str, labels: Iterable[str]) -> np.ndarray:
        """:func:`_hash_to_id` of ``{seed}/{kind}/{label}`` for every
        label, as one ``uint64`` array: the digests are read as one
        little-endian block."""
        blake2b = hashlib.blake2b
        prefix = f"{self.seed}/{kind}/"
        digests = b"".join([
            blake2b((prefix + label).encode("utf-8"), digest_size=8).digest()
            for label in labels
        ])
        return np.frombuffer(digests, dtype="<u8") & np.uint64(
            (1 << self.bits) - 1
        )

    def key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = _hash_to_id(f"{self.seed}/key/{key}", self.bits)
            if len(self._key_ids) < self.KEY_ID_CAP:
                self._key_ids[key] = kid
        return kid

    # -- membership ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peer_to_id

    def join(self, peer_id: int) -> ChordNode:
        """Add a peer; it takes over its share of keys from its successor."""
        return self.join_many((peer_id,))[0]

    def join_many(self, peer_ids: Sequence[int]) -> List[ChordNode]:
        """:meth:`join` for every peer, in order; returns the new nodes.

        One node-id pass (the digests read as one ``uint64`` block, as in
        :meth:`put_many`); an id collision moves the later joiner one id
        clockwise, in join order, as sequential joins would; then one
        sort of the ids.  Keys move only off members that hold some and
        gained a joiner in the arc ending at them: each key goes to its
        responsible node, in the order its holder stored them, which is
        where and in what order the sequential handoffs would put it.
        """
        seen = set()
        for peer_id in peer_ids:
            if peer_id in self._peer_to_id or peer_id in seen:
                raise ValueError(f"peer {peer_id} already in the ring")
            seen.add(peer_id)
        ids, nodes = self._ids, self._nodes
        space = 1 << self.bits
        joined = []
        for peer_id, node_id in zip(
            peer_ids, self._hash_ids("peer", map(str, peer_ids)).tolist()
        ):
            while node_id in nodes:  # vanishingly rare id collision
                node_id = (node_id + 1) % space
            node = nodes[node_id] = ChordNode(node_id, peer_id)
            self._peer_to_id[peer_id] = node_id
            joined.append(node)
        donors = []
        if ids:
            for node in joined:
                at = bisect.bisect_left(ids, node.node_id)
                donor = nodes[ids[at if at < len(ids) else 0]]
                if donor.store and donor not in donors:
                    donors.append(donor)
        if len(joined) == 1:  # a churn arrival: no pass over the ring
            bisect.insort(ids, joined[0].node_id)
        elif joined:
            ids.extend(node.node_id for node in joined)
            ids.sort()
        kid = self.key_id
        for donor in donors:
            store = donor.store
            for key in list(store):
                owner = self._successor_node(kid(key))
                if owner is not donor:
                    owner.store[key] = store.pop(key)
        return joined

    def leave(self, peer_id: int) -> None:
        """Remove a peer; its keys hand off to its successor."""
        node_id = self._peer_to_id.pop(peer_id, None)
        if node_id is None:
            raise KeyError(f"peer {peer_id} is not in the ring")
        node = self._nodes.pop(node_id)
        idx = bisect.bisect_left(self._ids, node_id)
        self._ids.pop(idx)
        if self._ids and node.store:
            successor = self._successor_node(node_id)
            successor.store.update(node.store)

    def peers(self) -> List[int]:
        return list(self._peer_to_id)

    # -- responsibility ------------------------------------------------------
    def _successor_node(self, ident: int) -> ChordNode:
        """First live node at or clockwise-after ``ident``."""
        idx = bisect.bisect_left(self._ids, ident)
        if idx == len(self._ids):
            idx = 0
        return self._nodes[self._ids[idx]]

    def responsible_node(self, key: str) -> ChordNode:
        if not self._ids:
            raise RuntimeError("ring is empty")
        return self._successor_node(self.key_id(key))

    # -- storage ---------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self.responsible_node(key).store[key] = value

    def put_many(self, keys: Sequence[str], values: Sequence[Any]) -> None:
        """:meth:`put` for every ``(key, value)`` pair, in order.

        One key-id pass (:meth:`_hash_ids`), one
        ``searchsorted`` of the key ids over the ring's ids for the
        responsible nodes, then the stores.  The key-id memo fills as
        the same ``put`` calls would fill it.
        """
        if not self._ids:
            raise RuntimeError("ring is empty")
        key_ids = self._hash_ids("key", keys)
        memo = self._key_ids
        if len(memo) + len(keys) <= self.KEY_ID_CAP:
            memo.update(zip(keys, key_ids.tolist()))
        else:
            for key, kid in zip(keys, key_ids.tolist()):
                if len(memo) >= self.KEY_ID_CAP:
                    break
                memo.setdefault(key, kid)
        at = np.searchsorted(np.array(self._ids, dtype=np.uint64), key_ids)
        at[at == len(self._ids)] = 0
        nodes = [self._nodes[node_id] for node_id in self._ids]
        for i, key, value in zip(at.tolist(), keys, values):
            nodes[i].store[key] = value

    def get_local(self, key: str) -> Any:
        """Read without routing (used by maintenance code, not lookups)."""
        return self.responsible_node(key).store.get(key)

    def update(self, key: str, fn) -> Any:
        """Read-modify-write at the responsible node."""
        node = self.responsible_node(key)
        node.store[key] = value = fn(node.store.get(key))
        return value

    # -- routing ------------------------------------------------------------
    def lookup(self, key: str, from_peer: int) -> Tuple[ChordNode, int]:
        """Route from ``from_peer`` to the node holding ``key``.

        Returns ``(responsible node, hop count)``; hop count is the
        number of application-level forwardings (0 when the start node is
        itself responsible).
        """
        ids = self._ids
        if not ids:
            raise RuntimeError("ring is empty")
        # A peer outside the ring bootstraps through its hashed position:
        # the walk starts at whoever is responsible there.
        start_id = self._peer_to_id.get(from_peer)
        if start_id is None:
            start_id = self.node_id_for(from_peer)
        at = bisect.bisect_left(ids, start_id)
        target, hops = self._walk(at if at < len(ids) else 0, self.key_id(key))
        self.n_lookups += 1
        self.total_hops += hops
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("lookup.count").inc()
            tel.metrics.histogram("lookup.hops").observe(hops)
            tel.bus.emit(
                "lookup.done",
                key=key, from_peer=from_peer, hops=hops, protocol="chord",
            )
        return self._nodes[target], hops

    def _walk(self, at: int, key_id: int) -> Tuple[int, int]:
        """The greedy finger walk from the member at index ``at``.

        Returns ``(responsible node id, hops)``.  Finger ``i`` of node
        ``n`` is ``successor(n + 2^i)``; the greedy step forwards to the
        farthest finger inside ``(n, key)``.  The farthest *member* in
        that interval is the key's strict predecessor ``pred``, so the
        finger is the one with ``i = bit_length(pred - n) - 1`` -- one
        bisect per hop names what a ``bits``-probe table scan would
        (``tests/lookup/reference_fingers.py`` is that scan).  The walk
        reaches ``pred`` and takes the final hop to its successor, the
        responsible node; both indices are fixed by the key, so they are
        found once, before the loop.
        """
        ids = self._ids
        n = len(ids)
        k = bisect.bisect_left(ids, key_id)
        target = ids[k] if k < n else ids[0]
        if ids[at] == target:
            return target, 0
        last = k - 1 if k else n - 1
        pred = ids[last]
        mask = (1 << self.bits) - 1
        hops = 1  # pred -> target
        while at != last:
            current = ids[at]
            reach = (pred - current) & mask
            at = bisect.bisect_left(
                ids, (current + (1 << (reach.bit_length() - 1))) & mask
            )
            if at == n:
                at = 0
            hops += 1
        return target, hops

    def get(self, key: str, from_peer: int) -> Tuple[Any, int]:
        """Routed read: ``(value or None, hops)``."""
        node, hops = self.lookup(key, from_peer)
        return node.store.get(key), hops

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.n_lookups if self.n_lookups else 0.0

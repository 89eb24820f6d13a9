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
the same path.

Membership is three columns, not one object per member: the sorted node
ids (a list, for the walk's bisects), the peer id at each position (an
``int64`` array aligned with it) and each peer's node id (a ``uint64``
array indexed by peer id, so peer ids are the directory's dense
non-negative ints).  Records live in one dict per member that holds
keys.  ``join_many`` / ``leave`` splice the two aligned columns (one
sort for a block of joiners; a bisect plus a C-speed splice for one
joiner or leaver); a :class:`ChordNode` is built only when a caller
asks for one.
"""

from __future__ import annotations

import bisect
import hashlib
from array import array
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["ChordNode", "ChordRing"]

#: The records of a member that holds none.
_NO_RECORDS: Mapping[str, Any] = MappingProxyType({})


def _sort_keys(ids: np.ndarray) -> np.ndarray:
    """``uint64`` ids as ``int64`` keys in the same order: the top bit is
    flipped, so a key is ``id - 2**63``.  The ring sorts these with the
    ``int64`` argsort the probing plane runs anyway; every other numpy
    sort kernel touches a few hundred KB more of numpy's code, which a
    small grid's peak RSS shows."""
    return (ids ^ np.uint64(1 << 63)).view(np.int64)


def _hash_to_id(label: str, bits: int) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (1 << bits)


class ChordNode:
    """One ring member as a lookup names it: identifier, peer and a
    read-only view of its records.  Built on demand; the ring keeps no
    node objects."""

    __slots__ = ("node_id", "peer_id", "store")

    def __init__(
        self, node_id: int, peer_id: int, store: Mapping[str, Any] = _NO_RECORDS
    ) -> None:
        self.node_id = node_id
        self.peer_id = peer_id
        self.store = store

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
        self._ids: List[int] = []  # sorted node ids
        #: Peer id of the member at each position of ``_ids``.
        self._peers = array("q")
        #: Peer id -> its node id.  A departed peer's entry goes stale;
        #: :meth:`_index_of` checks it against ``_peers``.
        self._node_of = array("Q")
        #: Node id -> its records, only for members that hold keys.
        self._stores: Dict[int, Dict[str, Any]] = {}
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
        return self._index_of(peer_id) >= 0

    def _index_of(self, peer_id: int) -> int:
        """Position of ``peer_id`` in ``_ids``; -1 if it is no member.

        Members' peer ids are non-negative, so a negative ``peer_id``,
        which indexes ``_node_of`` from its end, never matches.
        """
        try:
            at = bisect.bisect_left(self._ids, self._node_of[peer_id])
            if self._peers[at] == peer_id:
                return at
        except IndexError:  # beyond the column, or past the last id
            pass
        return -1

    def join(self, peer_id: int) -> None:
        """Add a peer; it takes over its share of keys from its successor."""
        self.join_many((peer_id,))

    def join_many(self, peer_ids: Sequence[int]) -> None:
        """:meth:`join` for every peer, in order.

        One node-id pass (the digests read as one ``uint64`` block, as in
        :meth:`put_many`); an id collision moves the later joiner
        clockwise to the next free id, in join order, as sequential joins
        would (:meth:`_seats`); then one sort of the ids.  Keys move only
        off members that hold some and gained a joiner in the arc ending
        at them: each key goes to its responsible node, in the order its
        holder stored them, which is where and in what order the
        sequential handoffs would put it.
        """
        pids = np.asarray(peer_ids, dtype=np.int64)
        pid_list = pids.tolist()
        if not pid_list:
            return
        if min(pid_list) < 0:
            raise ValueError("peer ids must be non-negative")
        if len(pid_list) > 1:
            ordered = pids[pids.argsort()]
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            if len(repeated):
                raise ValueError(f"peer {repeated[0]} joins twice")
        if self._ids:
            for peer_id in pid_list:
                if self._index_of(peer_id) >= 0:
                    raise ValueError(f"peer {peer_id} already in the ring")
        seats = self._seats(self._hash_ids("peer", map(str, pid_list)))
        ids, stores = self._ids, self._stores
        donors: List[int] = []
        if stores:
            for node_id in seats:
                at = bisect.bisect_left(ids, node_id)
                donor = ids[at if at < len(ids) else 0]
                if donor in stores and donor not in donors:
                    donors.append(donor)
        node_of = self._node_of
        top = max(pid_list) + 1
        if top > len(node_of):
            node_of.frombytes(bytes(8 * (top - len(node_of))))
        if len(seats) == 1:  # a churn arrival: no pass over the ring
            at = bisect.bisect_left(ids, seats[0])
            ids.insert(at, seats[0])
            self._peers.insert(at, pid_list[0])
            node_of[pid_list[0]] = seats[0]
        else:
            seat_ids = np.array(seats, dtype=np.uint64)
            np.frombuffer(node_of, dtype=np.uint64)[pids] = seat_ids
            all_ids = np.concatenate((np.array(ids, dtype=np.uint64), seat_ids))
            order = _sort_keys(all_ids).argsort()
            ids[:] = all_ids[order].tolist()
            peers = np.concatenate((np.array(self._peers, dtype=np.int64), pids))
            self._peers = array("q", peers[order].tobytes())
        kid = self.key_id
        for donor in donors:
            store = stores[donor]
            for key in list(store):
                owner = self._successor_id(kid(key))
                if owner != donor:
                    self._records_at(owner)[key] = store.pop(key)
            if not store:
                del stores[donor]

    def _seats(self, hashed: np.ndarray) -> List[int]:
        """Node ids of joiners hashed to ``hashed``, in join order.

        A joiner whose id is taken -- by a member, or by an earlier
        joiner -- moves clockwise to the next free id.  Collisions are
        not rare at scale: 32-bit ids collide 119 times among 10⁶ peers
        (seed 0), and a 10⁴-peer ring has about a 1 % chance of one.
        Only joiners that meet a taken id are walked, in join order:
        those hashed onto a member or onto an earlier joiner's hash, then
        any whose hash a moved joiner lands on.  Every other joiner keeps
        its hash, so a block pays one stable argsort for the collisions
        rather than a set of every id.
        """
        seats = hashed.tolist()
        ids = self._ids
        mask = (1 << self.bits) - 1

        def member(x: int) -> bool:
            at = bisect.bisect_left(ids, x)
            return at < len(ids) and ids[at] == x

        clashed = {j for j, x in enumerate(seats) if member(x)} if ids else set()
        # The distinct hashes as sort keys, and the first joiner of each.
        hashes = first = np.empty(0, dtype=np.int64)  # a lone joiner's
        if len(seats) > 1:
            keys = _sort_keys(hashed)
            order = keys.argsort(kind="stable")
            ordered = keys[order]
            new = np.ones(len(seats), dtype=bool)
            new[1:] = ordered[1:] != ordered[:-1]
            hashes, first = ordered[new], order[new]
            clashed.update(order[~new].tolist())
        if not clashed:
            return seats

        def first_hashed_to(x: int) -> int:
            """The first joiner hashed to ``x``; -1 if none is."""
            key = x - (1 << 63)
            at = int(hashes.searchsorted(key))
            return int(first[at]) if at < len(hashes) and hashes[at] == key else -1

        moved = set()  # ids that moved joiners took
        queue = sorted(clashed)  # a sorted list is a heap
        while queue:
            j = heappop(queue)
            x = seats[j]
            while True:
                f = first_hashed_to(x)
                # An earlier joiner hashed to x holds it unless it moved.
                if not (member(x) or x in moved or -1 < f < j and seats[f] == x):
                    break
                x = (x + 1) & mask
            seats[j] = x
            moved.add(x)
            if f > j:  # that joiner now finds its hash taken
                heappush(queue, f)
        return seats

    def leave(self, peer_id: int) -> None:
        """Remove a peer; its keys hand off to its successor."""
        at = self._index_of(peer_id)
        if at < 0:
            raise KeyError(f"peer {peer_id} is not in the ring")
        ids = self._ids
        node_id = ids.pop(at)
        self._peers.pop(at)
        store = self._stores.pop(node_id, None)
        if ids and store:
            successor = ids[at if at < len(ids) else 0]
            held = self._stores.get(successor)
            if held is None:
                self._stores[successor] = store
            else:
                held.update(store)

    def peers(self) -> List[int]:
        """Member peer ids, in ring (node id) order."""
        return self._peers.tolist()

    # -- responsibility ------------------------------------------------------
    def _successor_id(self, ident: int) -> int:
        """Id of the first live node at or clockwise-after ``ident``."""
        ids = self._ids
        idx = bisect.bisect_left(ids, ident)
        return ids[idx if idx < len(ids) else 0]

    def _responsible_id(self, key: str) -> int:
        if not self._ids:
            raise RuntimeError("ring is empty")
        return self._successor_id(self.key_id(key))

    def _node_at(self, at: int) -> ChordNode:
        node_id = self._ids[at]
        store = self._stores.get(node_id)
        return ChordNode(
            node_id,
            self._peers[at],
            _NO_RECORDS if store is None else MappingProxyType(store),
        )

    # -- storage ---------------------------------------------------------------
    def _records_at(self, node_id: int) -> Dict[str, Any]:
        """The (writable) records of the member ``node_id``, made on its
        first key."""
        store = self._stores.get(node_id)
        if store is None:
            store = self._stores[node_id] = {}
        return store

    def put(self, key: str, value: Any) -> None:
        self._records_at(self._responsible_id(key))[key] = value

    def put_many(self, keys: Sequence[str], values: Sequence[Any]) -> None:
        """:meth:`put` for every ``(key, value)`` pair, in order.

        One key-id pass (:meth:`_hash_ids`), one
        ``searchsorted`` of the key ids over the ring's ids for the
        responsible nodes, then the stores.  The key-id memo fills as
        the same ``put`` calls would fill it.
        """
        ids = self._ids
        if not ids:
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
        at = np.searchsorted(np.array(ids, dtype=np.uint64), key_ids)
        at[at == len(ids)] = 0
        owners = at.tolist()
        records: List[Any] = [None] * len(ids)
        for i in dict.fromkeys(owners):
            records[i] = self._records_at(ids[i])
        for i, key, value in zip(owners, keys, values):
            records[i][key] = value

    # -- routing ------------------------------------------------------------
    def lookup(self, key: str, from_peer: int) -> Tuple[ChordNode, int]:
        """Route from ``from_peer`` to the node holding ``key``.

        Returns ``(responsible node, hop count)``; hop count is the
        number of application-level forwardings (0 when the start node is
        itself responsible).
        """
        target, hops = self._route(key, from_peer)
        return self._node_at(bisect.bisect_left(self._ids, target)), hops

    def _route(self, key: str, from_peer: int) -> Tuple[int, int]:
        """:meth:`lookup`'s walk and accounting: ``(responsible node id,
        hops)``."""
        ids = self._ids
        if not ids:
            raise RuntimeError("ring is empty")
        at = self._index_of(from_peer)
        if at < 0:
            # A peer outside the ring bootstraps through its hashed
            # position: the walk starts at whoever is responsible there.
            at = bisect.bisect_left(ids, self.node_id_for(from_peer))
            if at == len(ids):
                at = 0
        target, hops = self._walk(at, self.key_id(key))
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
        return target, hops

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
        target, hops = self._route(key, from_peer)
        store = self._stores.get(target)
        return (None if store is None else store.get(key)), hops

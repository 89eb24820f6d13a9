"""Executable specification of Chord's greedy routing step.

This is the ``bits``-probe finger scan ``repro.lookup.chord`` shipped
before ``ChordRing._walk`` started naming the same finger with one
bisect per hop and no table.  Stoica et al.'s definition, verbatim:
node ``n``'s ``i``-th finger is ``successor(n + 2^i)``; the greedy step
forwards to the *farthest* finger inside the open circular interval
``(n, key)``, or stays put when no finger falls inside it.
``tests/lookup/test_finger_equivalence.py`` drives both over random
join/leave schedules.

Works on any sorted id list, so it needs nothing from the ring but its
membership and identifier width.  The three readers at the end look into a
``ChordRing``'s records without routing; they are the ring's record reads
that only the tests ever made, moved here unchanged.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Mapping, Sequence, Tuple

__all__ = ["in_open_interval", "successor", "fingers", "closest_preceding",
           "walk", "responsible_node", "records", "get_local"]


def in_open_interval(x: int, a: int, b: int) -> bool:
    """``x in (a, b)`` on the circle; ``(a, a)`` is everything but ``a``."""
    if a < b:
        return a < x < b
    return x > a or x < b


def successor(ids: Sequence[int], ident: int) -> int:
    """First member at or clockwise-after ``ident``."""
    idx = bisect.bisect_left(ids, ident)
    return ids[idx] if idx < len(ids) else ids[0]


def fingers(ids: Sequence[int], node_id: int, bits: int) -> List[int]:
    """``node_id``'s finger table, farthest (``2^(bits-1)``) first."""
    space = 1 << bits
    return [
        successor(ids, (node_id + (1 << i)) % space)
        for i in range(bits - 1, -1, -1)
    ]


def closest_preceding(
    ids: Sequence[int], node_id: int, key_id: int, bits: int
) -> int:
    """The farthest finger of ``node_id`` strictly preceding ``key_id``."""
    for finger in fingers(ids, node_id, bits):
        if in_open_interval(finger, node_id, key_id):
            return finger
    return node_id


def walk(
    ids: Sequence[int], start_id: int, key_id: int, bits: int
) -> Tuple[int, int]:
    """``(responsible node, hops)`` of the greedy walk from ``start_id``."""
    space = 1 << bits
    target = successor(ids, key_id)
    current, hops = start_id, 0
    while current != target:
        succ = successor(ids, (current + 1) % space)
        if succ == target and (
            key_id == succ or in_open_interval(key_id, current, succ)
        ):
            current = succ
        else:
            nxt = closest_preceding(ids, current, key_id, bits)
            current = succ if nxt == current else nxt
        hops += 1
    return current, hops


def responsible_node(ring, key: str):
    """The ``ChordNode`` that holds ``key``."""
    return ring._node_at(bisect.bisect_left(ring._ids, ring._responsible_id(key)))


def records(ring, peer_id: int) -> Mapping[str, Any]:
    """The records member ``peer_id`` stores, in store order, read-only."""
    at = ring._index_of(peer_id)
    if at < 0:
        raise KeyError(f"peer {peer_id} is not in the ring")
    return ring._node_at(at).store


def get_local(ring, key: str) -> Any:
    """Read ``key`` at its responsible node without routing."""
    store = ring._stores.get(ring._responsible_id(key))
    return None if store is None else store.get(key)

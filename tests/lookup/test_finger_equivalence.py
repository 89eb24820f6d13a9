"""Differential proof: the one-bisect greedy walk is the finger scan.

``ChordRing._walk`` hoists the key-side bisects out of the loop, carries
the current node's index and names each hop's finger with one bisect on
the sorted id list; ``reference_fingers.py`` probes all ``bits`` fingers
per hop the way the ring did originally.  Hypothesis drives random
join/leave schedules and, after every membership change, requires the
same ``(responsible node, hop count)`` from every member start for every
key probed, and the same answer from full ``lookup()`` calls by members
and by non-member peers (which bootstrap at the successor of their
hashed position).

``bits = 8`` with up to 24 peers makes the hard cases common: id
collisions (re-seated by +1), wrap-around intervals, fingers that wrap
all the way back to the node itself, and 1-, 2- and 3-member rings;
``bits = 64`` exercises the widest offsets.  Keys are aimed at the
boundaries: every member id (``key_id == node_id`` included), its
neighbours, and every ``n + 2^i`` finger target.
"""

from hypothesis import given, settings, strategies as st

from repro.lookup.chord import ChordRing

from tests.lookup import reference_fingers as ref

_bits = st.sampled_from((8, 16, 32, 64))
_peer = st.integers(min_value=0, max_value=23)
_schedule = st.lists(
    st.one_of(
        st.tuples(st.just("join"), _peer),
        st.tuples(st.just("leave"), _peer),
    ),
    min_size=1,
    max_size=16,
)


def _probe_keys(ring, extra):
    """Boundary-heavy key ids for the ring's current membership."""
    space = 1 << ring.bits
    if ring.bits == 8:
        return range(space)  # the whole identifier circle
    keys = set(extra)
    for n in ring._ids:
        keys.update(((n - 1) % space, n, (n + 1) % space))
        for i in range(ring.bits):
            target = (n + (1 << i)) % space
            keys.update(((target - 1) % space, target, (target + 1) % space))
    return sorted(keys)


def _check_ring(ring, extra, step):
    ids = ring._ids
    assert ids == sorted(set(ids))
    bits = ring.bits
    keys = _probe_keys(ring, extra)
    for at, n in enumerate(ids):
        for k in keys:
            assert ring._walk(at, k) == ref.walk(ids, n, k, bits), (step, n, k)
    # Full lookups: pin the key id through the key->id memo so the walk
    # is aimed at the same boundary ids, then compare target, hops and
    # the ring's own statistics.
    members = ring.peers()
    for j, k in enumerate(keys[:: max(1, len(keys) // 24)]):
        key = f"k{k}"
        ring._key_ids[key] = k
        for from_peer in (members[j % len(members)], 1000 + j):
            start = dict(zip(members, ids)).get(from_peer)
            if start is None:  # outsider: bootstraps via its hashed spot
                start = ref.successor(ids, ring.node_id_for(from_peer))
            want = ref.walk(ids, start, k, bits)
            before = ring.n_lookups, ring.total_hops
            node, hops = ring.lookup(key, from_peer)
            assert (node.node_id, hops) == want, (step, from_peer, k)
            assert (ring.n_lookups, ring.total_hops) == (
                before[0] + 1, before[1] + hops
            )


@settings(max_examples=300, deadline=None)
@given(
    bits=_bits,
    seed=st.integers(min_value=0, max_value=3),
    schedule=_schedule,
    extra=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                   max_size=8),
)
def test_finger_free_step_matches_reference_scan(bits, seed, schedule, extra):
    ring = ChordRing(bits=bits, seed=seed)
    extra = [k % (1 << bits) for k in extra]
    for step, (op, pid) in enumerate(schedule):
        if op == "join":
            if pid in ring:
                continue
            ring.join(pid)
        else:
            if pid not in ring:
                continue
            ring.leave(pid)
        if ring._ids:
            _check_ring(ring, extra, step)


def test_small_rings_and_self_keys():
    """1-, 2- and 3-member rings, every key on an 8-bit circle."""
    for size in (1, 2, 3):
        ring = ChordRing(bits=8, seed=1)
        for pid in range(size):
            ring.join(pid)
        ids = ring._ids
        for at, n in enumerate(ids):
            for k in range(256):
                assert ring._walk(at, k) == ref.walk(ids, n, k, 8), (size, n, k)
        for at, n in enumerate(ids):
            # key_id == node_id: the node is responsible, zero hops.
            assert ring._walk(at, n) == (n, 0)
            # One past it: the whole circle lies between node and key.
            target, hops = ring._walk(at, (n + 1) % 256)
            assert target == ref.successor(ids, (n + 1) % 256)
            assert (hops == 0) == (size == 1)


def test_step_is_exact_for_a_non_member_start():
    """Every non-member bootstraps at the successor of its hashed spot."""
    ring = ChordRing(bits=8, seed=0)
    for pid in range(12):
        ring.join(pid)
    ids = ring._ids
    outsiders = range(100, 356)
    # The outsiders' hashed positions land on members and between them.
    spots = {ring.node_id_for(pid) for pid in outsiders}
    assert spots & set(ids) and spots - set(ids)
    for pid in outsiders:
        start = ref.successor(ids, ring.node_id_for(pid))
        for k in range(256):
            key = f"k{k}"
            ring._key_ids[key] = k
            node, hops = ring.lookup(key, pid)
            assert (node.node_id, hops) == ref.walk(ids, start, k, 8), (pid, k)

"""Unit tests for the Chord DHT."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.lookup.chord import ChordRing
from tests.lookup.reference_fingers import get_local, records, responsible_node


def _stores(ring):
    """Member peer -> its records, in store order."""
    return {pid: list(records(ring, pid).items()) for pid in ring.peers()}


def ring_with(n, bits=16, seed=0):
    ring = ChordRing(bits=bits, seed=seed)
    for pid in range(n):
        ring.join(pid)
    return ring


class TestMembership:
    def test_join_and_contains(self):
        ring = ring_with(5)
        assert len(ring) == 5
        assert 3 in ring and 99 not in ring

    def test_double_join_rejected(self):
        ring = ring_with(2)
        with pytest.raises(ValueError):
            ring.join(0)

    def test_leave_unknown_rejected(self):
        ring = ring_with(2)
        with pytest.raises(KeyError):
            ring.leave(42)

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            ChordRing(bits=4)
        with pytest.raises(ValueError):
            ChordRing(bits=128)


class TestResponsibility:
    def test_put_get_roundtrip(self):
        ring = ring_with(20)
        ring.put("service:video", ("a", "b"))
        value, hops = ring.get("service:video", from_peer=7)
        assert value == ("a", "b")
        assert hops >= 0

    def test_get_missing_returns_none(self):
        ring = ring_with(5)
        value, _ = ring.get("nope", from_peer=0)
        assert value is None

    def test_responsible_node_is_successor_of_key(self):
        ring = ring_with(50)
        key = "some-key"
        node = responsible_node(ring, key)
        kid = ring.key_id(key)
        # No other node id lies in [key_id, node_id) going clockwise.
        for other_id in ring._ids:
            if other_id == node.node_id:
                continue
            if kid <= node.node_id:
                assert not (kid <= other_id < node.node_id)

    def test_empty_ring_raises(self):
        ring = ChordRing(bits=16)
        with pytest.raises(RuntimeError):
            responsible_node(ring, "k")
        with pytest.raises(RuntimeError):
            ring.lookup("k", from_peer=0)
        with pytest.raises(RuntimeError):
            ring.put_many(["k"], [1])

    @pytest.mark.parametrize("bits, cap", [(16, 1 << 16), (64, 1 << 16), (32, 40)])
    def test_put_many_is_put_in_order(self, bits, cap):
        """Same stores (key order included) and the same key-id memo,
        also when the memo cap cuts it short or a key repeats."""
        keys = [f"instance:s{i % 7}/{i}" for i in range(300)] + ["instance:s0/0"]
        values = [(i,) for i in range(len(keys))]
        bulk, one_by_one = ring_with(40, bits), ring_with(40, bits)
        bulk.KEY_ID_CAP = one_by_one.KEY_ID_CAP = cap
        bulk.key_id("instance:s3/3")  # a memo entry before the put
        one_by_one.key_id("instance:s3/3")
        bulk.put_many(keys, values)
        for key, value in zip(keys, values):
            one_by_one.put(key, value)
        for ring in (bulk, one_by_one):
            assert sum(len(records(ring, p)) for p in ring.peers()) == 300
        assert _stores(bulk) == _stores(one_by_one)
        assert list(bulk._key_ids.items()) == list(one_by_one._key_ids.items())
        assert all(bulk.key_id(k) == one_by_one.key_id(k) for k in keys)


class TestHandoff:
    def test_keys_survive_join(self):
        ring = ring_with(10)
        keys = [f"key-{i}" for i in range(200)]
        for k in keys:
            ring.put(k, k.upper())
        for pid in range(10, 60):
            ring.join(pid)
        for k in keys:
            value, _ = ring.get(k, from_peer=0)
            assert value == k.upper()

    def test_keys_survive_leave(self):
        ring = ring_with(60)
        keys = [f"key-{i}" for i in range(200)]
        for k in keys:
            ring.put(k, k.upper())
        for pid in range(40):
            ring.leave(pid)
        for k in keys:
            value, _ = ring.get(k, from_peer=50)
            assert value == k.upper()

    def test_keys_survive_mixed_churn(self):
        rng = np.random.default_rng(0)
        ring = ring_with(50)
        keys = [f"key-{i}" for i in range(100)]
        for k in keys:
            ring.put(k, 1)
        next_pid = 50
        members = set(range(50))
        for _ in range(200):
            if rng.random() < 0.5 and len(members) > 5:
                victim = int(rng.choice(sorted(members)))
                ring.leave(victim)
                members.discard(victim)
            else:
                ring.join(next_pid)
                members.add(next_pid)
                next_pid += 1
        for k in keys:
            value, _ = ring.get(k, from_peer=sorted(members)[0])
            assert value == 1

    def test_storage_roughly_balanced(self):
        ring = ring_with(64, bits=32)
        for i in range(6400):
            ring.put(f"key-{i}", i)
        sizes = [len(records(ring, pid)) for pid in ring.peers()]
        assert sum(sizes) == 6400
        # Consistent hashing balance: max node holds O(log n / n) share.
        assert max(sizes) < 6400 * 0.15


class TestRouting:
    def test_lookup_from_nonmember_bootstraps(self):
        ring = ring_with(10)
        ring.put("k", "v")
        value, hops = ring.get("k", from_peer=12345)
        assert value == "v"

    def test_hops_zero_when_start_is_responsible(self):
        ring = ring_with(10)
        ring.put("k", "v")
        owner = responsible_node(ring, "k").peer_id
        _, hops = ring.get("k", from_peer=owner)
        assert hops == 0

    def test_hop_count_logarithmic(self):
        """Mean lookup hops grow like O(log2 N) (<= ~1.5 log2 N slack)."""
        rng = np.random.default_rng(1)
        for n in (32, 128, 512):
            ring = ring_with(n, bits=32, seed=2)
            keys = [f"key-{i}" for i in range(100)]
            for k in keys:
                ring.put(k, 1)
            hops = []
            for k in keys:
                start = int(rng.integers(n))
                _, h = ring.get(k, from_peer=start)
                hops.append(h)
            mean = np.mean(hops)
            assert mean <= 1.5 * math.log2(n), (n, mean)

    def test_lookup_statistics_accumulate(self):
        ring = ring_with(16)
        ring.put("k", 1)
        before = ring.n_lookups
        ring.get("k", from_peer=3)
        assert ring.n_lookups == before + 1

    def test_single_node_ring(self):
        ring = ring_with(1)
        ring.put("k", "v")
        value, hops = ring.get("k", from_peer=0)
        assert value == "v"
        assert hops == 0


def _ring_state(ring):
    return (
        list(ring._ids),
        sorted(zip(ring.peers(), ring._ids)),
        _stores(ring),
    )


@pytest.mark.parametrize(
    "seed, n_peers, bits",
    [(seed, n, 32) for seed in range(5) for n in (2, 300)]
    + [(seed, 200, 8) for seed in range(5)],  # 8 bits: id collisions
)
def test_join_many_equals_sequential_joins(seed, n_peers, bits):
    """A block join leaves the ring ``join`` per peer leaves -- ids,
    peer -> node id and every node's keys, in order -- and the two stay
    equal through 20 churned minutes in which the block ring takes each
    minute's arrivals as one ``join_many`` while it holds keys."""
    rng = np.random.default_rng(seed)
    block = ChordRing(bits=bits, seed=seed)
    sequential = ChordRing(bits=bits, seed=seed)
    block.join_many(range(n_peers))
    assert sorted(block.peers()) == list(range(n_peers))
    for pid in range(n_peers):
        sequential.join(pid)
    if bits == 8:  # the collisions really happened
        hashed = {block.node_id_for(pid) for pid in range(n_peers)}
        assert len(hashed) < n_peers
    assert _ring_state(block) == _ring_state(sequential)
    keys = [f"instance:s{i % 9}/{i}" for i in range(400)]
    for ring in (block, sequential):
        ring.put_many(keys, [(i,) for i in range(len(keys))])
    assert _ring_state(block) == _ring_state(sequential)
    members, next_pid = list(range(n_peers)), n_peers
    for _ in range(20):
        departing = min(int(rng.integers(0, 4)), len(members) - 1)
        for _ in range(departing):
            pid = members.pop(int(rng.integers(len(members))))
            block.leave(pid)
            sequential.leave(pid)
        n_arriving = departing + int(rng.integers(0, 2))
        arrivals = list(range(next_pid, next_pid + n_arriving))
        next_pid += len(arrivals)
        members += arrivals
        block.join_many(arrivals)
        for pid in arrivals:
            sequential.join(pid)
        assert _ring_state(block) == _ring_state(sequential)
    for key in keys:
        assert get_local(block, key) is not None


def test_join_many_rejects_duplicates_before_joining():
    ring = ring_with(3)
    for batch in ([5, 6, 5], [7, 1]):
        with pytest.raises(ValueError):
            ring.join_many(batch)
        assert len(ring) == 3 and 5 not in ring and 7 not in ring


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3),
    members=st.lists(st.integers(0, 150), min_size=1, max_size=60, unique=True),
    block=st.lists(st.integers(0, 150), min_size=1, max_size=90, unique=True),
)
def test_join_many_seats_collisions_as_sequential_joins(seed, members, block):
    """On an 8-bit circle a block collides with members, with itself and
    with the ids its moved joiners land on; every joiner still gets the
    id a sequential join would give it."""
    block = [pid for pid in block if pid not in members]
    assume(block)
    rings = ChordRing(bits=8, seed=seed), ChordRing(bits=8, seed=seed)
    for ring in rings:
        ring.join_many(members)
        ring.put_many([f"k{i}" for i in range(40)], list(range(40)))
    rings[0].join_many(block)
    for pid in block:
        rings[1].join(pid)
    assert _ring_state(rings[0]) == _ring_state(rings[1])

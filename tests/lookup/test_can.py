"""Unit tests for the CAN DHT."""

import numpy as np
import pytest

from tests.lookup.can import CanNetwork, Zone


def can_with(n, d=2, seed=0):
    net = CanNetwork(dimensions=d, seed=seed)
    for pid in range(n):
        net.join(pid)
    return net


class TestZone:
    def test_validation(self):
        with pytest.raises(ValueError):
            Zone(np.array([0.5]), np.array([0.5]))

    def test_volume_and_center(self):
        z = Zone(np.array([0.0, 0.0]), np.array([0.5, 1.0]))
        assert z.volume == 0.5
        assert list(z.center) == [0.25, 0.5]

    def test_contains_half_open(self):
        z = Zone(np.array([0.0]), np.array([0.5]))
        assert z.contains(np.array([0.0]))
        assert z.contains(np.array([0.49]))
        assert not z.contains(np.array([0.5]))

    def test_split_halves_longest_dim(self):
        z = Zone(np.array([0.0, 0.0]), np.array([1.0, 0.5]))
        a, b = z.split()
        assert a.hi[0] == 0.5 and b.lo[0] == 0.5  # split along dim 0
        assert np.isclose(a.volume + b.volume, z.volume)

    def test_distance_zero_inside(self):
        z = Zone(np.array([0.2, 0.2]), np.array([0.4, 0.4]))
        assert z.distance_to(np.array([0.3, 0.3])) == 0.0

    def test_distance_wraps_on_torus(self):
        z = Zone(np.array([0.0, 0.0]), np.array([0.1, 1.0]))
        # Point at x=0.95: direct gap 0.85, torus gap 0.05 (wrapping).
        d = z.distance_to(np.array([0.95, 0.5]))
        assert d == pytest.approx(0.05)

    def test_adjacent_shared_face(self):
        a = Zone(np.array([0.0, 0.0]), np.array([0.5, 1.0]))
        b = Zone(np.array([0.5, 0.0]), np.array([1.0, 1.0]))
        assert a.adjacent(b)

    def test_adjacent_wraparound(self):
        a = Zone(np.array([0.0, 0.0]), np.array([0.25, 1.0]))
        b = Zone(np.array([0.75, 0.0]), np.array([1.0, 1.0]))
        assert a.adjacent(b)  # across the x-wrap

    def test_corner_touch_not_adjacent(self):
        a = Zone(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        b = Zone(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        assert not a.adjacent(b)

    def test_disjoint_not_adjacent(self):
        a = Zone(np.array([0.0, 0.0]), np.array([0.25, 0.25]))
        b = Zone(np.array([0.5, 0.5]), np.array([0.75, 0.75]))
        assert not a.adjacent(b)


class TestMembership:
    def test_first_node_owns_everything(self):
        net = can_with(1)
        assert net.total_volume() == pytest.approx(1.0)

    def test_volume_conserved_under_joins(self):
        net = can_with(64)
        assert net.total_volume() == pytest.approx(1.0)

    def test_volume_conserved_under_mixed_churn(self):
        net = can_with(40)
        rng = np.random.default_rng(0)
        members = set(range(40))
        next_pid = 40
        for _ in range(120):
            if rng.random() < 0.5 and len(members) > 2:
                victim = int(rng.choice(sorted(members)))
                net.leave(victim)
                members.discard(victim)
            else:
                net.join(next_pid)
                members.add(next_pid)
                next_pid += 1
            assert net.total_volume() == pytest.approx(1.0)

    def test_double_join_rejected(self):
        net = can_with(3)
        with pytest.raises(ValueError):
            net.join(0)

    def test_unknown_leave_rejected(self):
        net = can_with(3)
        with pytest.raises(KeyError):
            net.leave(99)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            CanNetwork(dimensions=0)

    def test_neighbors_symmetric(self):
        net = can_with(50)
        for node in net._nodes.values():
            for nb in node.neighbors:
                assert node.peer_id in net._nodes[nb].neighbors


class TestStorageAndRouting:
    def test_put_get_roundtrip(self):
        net = can_with(30)
        net.put("service:video", ("a", "b"))
        value, hops = net.get("service:video", from_peer=7)
        assert value == ("a", "b")
        assert hops >= 0

    def test_get_missing_none(self):
        net = can_with(10)
        value, _ = net.get("nope", from_peer=0)
        assert value is None

    def test_update(self):
        net = can_with(10)
        net.put("hosts", frozenset({1}))
        net.update("hosts", lambda h: frozenset(h | {2}))
        value, _ = net.get("hosts", from_peer=3)
        assert value == frozenset({1, 2})

    def test_keys_survive_join_churn(self):
        net = can_with(10)
        keys = [f"key-{i}" for i in range(100)]
        for k in keys:
            net.put(k, k.upper())
        for pid in range(10, 50):
            net.join(pid)
        for k in keys:
            value, _ = net.get(k, from_peer=25)
            assert value == k.upper()

    def test_keys_survive_leave_churn(self):
        net = can_with(50)
        keys = [f"key-{i}" for i in range(100)]
        for k in keys:
            net.put(k, 1)
        for pid in range(30):
            net.leave(pid)
        for k in keys:
            value, _ = net.get(k, from_peer=40)
            assert value == 1

    def test_lookup_from_nonmember_bootstraps(self):
        net = can_with(10)
        net.put("k", "v")
        value, hops = net.get("k", from_peer=12345)
        assert value == "v"
        assert hops >= 1

    def test_hops_scale_sublinearly(self):
        """Mean hops ~ O(d N^(1/d)): far below N even for modest N."""
        rng = np.random.default_rng(1)
        for n in (16, 64, 256):
            net = can_with(n, d=2, seed=2)
            for i in range(50):
                net.put(f"key-{i}", 1)
            hops = []
            for i in range(50):
                _, h = net.get(f"key-{i}", from_peer=int(rng.integers(n)))
                hops.append(h)
            mean = np.mean(hops)
            # CAN bound with d=2: ~ (d/2) * N^(1/2); allow 3x slack.
            assert mean <= 3.0 * np.sqrt(n), (n, mean)

    def test_empty_can_raises(self):
        net = CanNetwork()
        with pytest.raises(RuntimeError):
            net.lookup("k", from_peer=0)

    def test_statistics(self):
        net = can_with(8)
        net.put("k", 1)
        net.get("k", from_peer=2)
        assert net.n_lookups == 1
        assert net.mean_hops >= 0.0

"""Unit tests for peers and the peer directory."""

import pytest

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from tests.network.reference_directory import ScalarPeer, availability_matrix

NAMES = ("cpu", "memory")


def rv(cpu, mem):
    return ResourceVector(NAMES, [cpu, mem])


def make_peer(pid=0, cpu=100.0, mem=100.0, access=1e6, joined=0.0):
    return ScalarPeer(pid, rv(cpu, mem), access, joined)


class TestPeer:
    def test_initial_availability_equals_capacity(self):
        p = make_peer(cpu=500, mem=500)
        assert p.available == p.capacity
        assert p.available is not p.capacity  # independent copies

    def test_positive_access_required(self):
        with pytest.raises(ValueError):
            make_peer(access=0)

    def test_uptime(self):
        p = make_peer(joined=10.0)
        assert p.uptime(25.0) == 15.0
        assert p.uptime(5.0) == 0.0  # clamped

    def test_uptime_frozen_after_departure(self):
        p = make_peer(joined=0.0)
        p.departed_at = 30.0
        assert p.uptime(100.0) == 30.0
        assert not p.alive

    def test_reserve_release_cycle(self):
        p = make_peer(cpu=100, mem=100)
        assert p.reserve(rv(60, 60))
        assert list(p.available.values) == [40.0, 40.0]
        assert not p.reserve(rv(50, 50))  # does not fit
        assert list(p.available.values) == [40.0, 40.0]  # unchanged
        p.release(rv(60, 60))
        assert p.available == p.capacity

    def test_release_over_capacity_raises(self):
        p = make_peer()
        with pytest.raises(ValueError):
            p.release(rv(1, 1))

    def test_bandwidth_up_down_independent(self):
        p = make_peer(access=1000.0)
        assert p.reserve_up(800.0)
        assert p.reserve_down(900.0)
        assert not p.reserve_up(300.0)
        assert p.avail_up == pytest.approx(200.0)
        assert p.avail_down == pytest.approx(100.0)
        p.release_up(800.0)
        assert p.avail_up == pytest.approx(1000.0)

    def test_bandwidth_release_clamped_to_capacity(self):
        p = make_peer(access=1000.0)
        p.release_down(500.0)  # spurious release
        assert p.avail_down == 1000.0


class TestPeerDirectory:
    def make(self, n=5):
        d = SoAPeerDirectory(NAMES)
        for i in range(n):
            d.create_peer(rv(100 + i, 100 + i), 1e6, joined_at=float(i))
        return d

    def test_ids_sequential(self):
        d = self.make(3)
        assert d.alive_ids == [0, 1, 2]
        assert d.n_alive == 3

    def test_getitem_and_get(self):
        d = self.make(2)
        assert d[1].peer_id == 1
        assert d.get(99) is None
        assert d.is_alive(1) and not d.is_alive(99)

    def test_depart_updates_alive(self):
        d = self.make(4)
        d.depart(2, now=10.0)
        assert d.alive_ids == [0, 1, 3]
        assert d.n_alive == 3
        assert not d.is_alive(2)
        assert d.get(2) is None

    def test_double_departure_rejected(self):
        d = self.make(2)
        d.depart(0, 1.0)
        with pytest.raises(ValueError):
            d.depart(0, 2.0)

    def test_create_after_departure_gets_fresh_id(self):
        d = self.make(2)
        d.depart(1, 1.0)
        assert d.create_peer(rv(5, 5), 1e6, joined_at=1.0) == 2
        assert d.alive_ids == [0, 2]

    def test_uptimes_aligned_with_ids(self):
        d = self.make(3)
        up, ids = d.uptimes(now=10.0)
        assert ids == [0, 1, 2]
        assert list(up) == [10.0, 9.0, 8.0]

    def test_availability_matrix(self):
        d = self.make(3)
        d.reserve(0, rv(50, 50))
        m = availability_matrix(d, [0, 2])
        assert m.shape == (2, 2)
        assert list(m[0]) == [50.0, 50.0]
        assert list(m[1]) == [102.0, 102.0]

    def test_availability_matrix_empty(self):
        d = self.make(1)
        assert availability_matrix(d, []).shape == (0, 2)

    def test_alive_peers_iterates_alive_only(self):
        d = self.make(3)
        d.depart(0, 0.0)
        assert [p.peer_id for p in d.alive_peers()] == [1, 2]

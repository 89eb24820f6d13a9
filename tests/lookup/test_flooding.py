"""Unit tests for the Gnutella-style flooding overlay."""

import numpy as np
import pytest

from tests.lookup.flooding import FloodingOverlay


def overlay(n=100, degree=4, seed=0):
    return FloodingOverlay(range(n), degree, np.random.default_rng(seed))


class TestConstruction:
    def test_every_peer_has_neighbors(self):
        ov = overlay()
        assert all(len(nbrs) >= 1 for nbrs in ov.adj.values())

    def test_edges_undirected(self):
        ov = overlay()
        for pid, nbrs in ov.adj.items():
            for nb in nbrs:
                assert pid in ov.adj[nb]

    def test_no_self_loops(self):
        ov = overlay()
        for pid, nbrs in ov.adj.items():
            assert pid not in nbrs

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            FloodingOverlay(range(10), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            FloodingOverlay([1], 2, np.random.default_rng(0))


class TestMembership:
    def test_add_peer_wires_links(self):
        ov = overlay(n=20)
        ov.add_peer(99, np.random.default_rng(1))
        assert len(ov.adj[99]) >= 1
        for nb in ov.adj[99]:
            assert 99 in ov.adj[nb]

    def test_add_existing_rejected(self):
        ov = overlay(n=10)
        with pytest.raises(ValueError):
            ov.add_peer(3, np.random.default_rng(0))

    def test_remove_peer_cleans_edges(self):
        ov = overlay(n=20)
        neighbors = list(ov.adj[5])
        ov.remove_peer(5)
        assert 5 not in ov.adj
        for nb in neighbors:
            assert 5 not in ov.adj[nb]


class TestFlood:
    def test_finds_record_within_ttl(self):
        ov = overlay(n=200, degree=6, seed=3)
        holders = {7, 42, 130}
        result = ov.flood(0, lambda p: p in holders, ttl=10)
        assert set(result.found) & holders

    def test_zero_ttl_checks_only_start(self):
        ov = overlay(n=50)
        result = ov.flood(3, lambda p: p == 3, ttl=0)
        assert result.found == (3,)
        assert result.messages == 0

    def test_messages_grow_with_ttl(self):
        ov = overlay(n=500, degree=5, seed=1)
        m1 = ov.flood(0, lambda p: False, ttl=2).messages
        m2 = ov.flood(0, lambda p: False, ttl=5).messages
        assert m2 > m1

    def test_flooding_costs_more_messages_than_chord_hops(self):
        """The motivating comparison: flooding sprays O(N) messages."""
        ov = overlay(n=500, degree=5, seed=2)
        result = ov.flood(0, lambda p: False, ttl=7)
        assert result.messages > 500  # visits most of the network

    def test_stop_at_limits_spread(self):
        ov = overlay(n=500, degree=5, seed=4)
        holders = set(range(0, 500, 10))
        full = ov.flood(1, lambda p: p in holders, ttl=7)
        bounded = ov.flood(1, lambda p: p in holders, ttl=7, stop_at=3)
        assert bounded.messages <= full.messages
        assert len(bounded.found) >= 3

    def test_unknown_start_rejected(self):
        ov = overlay(n=10)
        with pytest.raises(KeyError):
            ov.flood(999, lambda p: False, ttl=2)

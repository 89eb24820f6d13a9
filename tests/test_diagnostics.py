"""Tests for the grid invariant checker -- and, through it, end-to-end
consistency of heavy churny workloads on both DHT substrates."""


import pytest

import repro.grid
from repro.diagnostics import check_grid_invariants
from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig
from repro.sessions.recovery import RecoveryConfig
from tests.lookup.can import CanNetwork, can_ring, check_can


def drive(grid, minutes=20, per_minute=3):
    agg = grid.make_aggregator("qsa")

    def tick():
        for _ in range(per_minute):
            agg.aggregate(grid.make_request("video-on-demand", duration=5.0))

    for t in range(minutes):
        grid.sim.call_at(float(t), tick)
    grid.sim.run(until=float(minutes))


class TestCleanGrids:
    def test_fresh_grid_clean(self):
        grid = P2PGrid(GridConfig(n_peers=150, seed=1))
        assert check_grid_invariants(grid) == []

    def test_loaded_grid_clean(self):
        grid = P2PGrid(GridConfig(n_peers=150, seed=2))
        drive(grid, minutes=10)
        assert check_grid_invariants(grid) == []

    def test_churny_grid_clean(self):
        grid = P2PGrid(GridConfig(
            n_peers=150, seed=3, churn=ChurnConfig(rate_per_min=5.0),
        ))
        drive(grid, minutes=15)
        grid.churn.stop()
        assert check_grid_invariants(grid) == []

    def test_churny_grid_with_recovery_clean(self):
        grid = P2PGrid(GridConfig(
            n_peers=150, seed=4,
            churn=ChurnConfig(rate_per_min=5.0),
            recovery=RecoveryConfig(),
        ))
        drive(grid, minutes=15)
        grid.churn.stop()
        assert check_grid_invariants(grid) == []

    @pytest.mark.slow
    def test_can_grid_clean_under_churn(self, monkeypatch):
        monkeypatch.setattr(repro.grid, "ChordRing", can_ring)
        grid = P2PGrid(GridConfig(
            n_peers=120, seed=5,
            churn=ChurnConfig(rate_per_min=4.0),
        ))
        assert isinstance(grid.ring, CanNetwork)
        drive(grid, minutes=10, per_minute=2)
        grid.churn.stop()
        assert check_grid_invariants(grid) == []
        assert check_can(grid.ring) == []

    def test_registry_audit_can_be_skipped(self):
        grid = P2PGrid(GridConfig(n_peers=150, seed=1))
        assert check_grid_invariants(grid, registry=False) == []


class TestDetectsCorruption:
    def test_detects_resource_leak(self):
        grid = P2PGrid(GridConfig(n_peers=100, seed=6))
        d = grid.directory
        d.store.available[d.row_of(0)] += 50.0  # availability beyond capacity
        problems = check_grid_invariants(grid, registry=False)
        assert any("exceeds capacity" in p for p in problems)

    def test_detects_negative_availability(self):
        grid = P2PGrid(GridConfig(n_peers=100, seed=6))
        d = grid.directory
        d.store.available[d.row_of(0)] -= 1e9
        problems = check_grid_invariants(grid, registry=False)
        assert any("negative availability" in p for p in problems)

    def test_detects_catalog_mismatch(self):
        grid = P2PGrid(GridConfig(n_peers=100, seed=7))
        iid = next(iter(grid.catalog.instances))
        some_host = next(iter(grid.catalog.hosts(iid)))
        hosted = grid.catalog.hosted_by[some_host]
        # break the inverse
        grid.catalog.hosted_by[some_host] = tuple(i for i in hosted if i != iid)
        problems = check_grid_invariants(grid, registry=False)
        assert any("hosted_by disagrees" in p for p in problems)

    def test_detects_registry_drift(self):
        grid = P2PGrid(GridConfig(n_peers=100, seed=8))
        iid = next(iter(grid.catalog.instances))
        grid.ring.put(grid.registry.INSTANCE_PREFIX + iid, frozenset({10**6}))
        problems = check_grid_invariants(grid)
        assert any("host record" in p for p in problems)

    def test_detects_session_on_dead_peer(self):
        grid = P2PGrid(GridConfig(n_peers=100, seed=9))
        agg = grid.make_aggregator("qsa")
        res = None
        for _ in range(10):
            res = agg.aggregate(
                grid.make_request("video-on-demand", duration=50.0)
            )
            if res.admitted:
                break
        assert res.admitted
        # Kill the peer *without* the proper departure path.
        grid.directory.depart(res.peers[0], grid.sim.now)
        problems = check_grid_invariants(grid, registry=False)
        assert any("active on dead peer" in p for p in problems)


class TestEmptyPopulation:
    def test_registry_check_survives_zero_alive_peers(self):
        # Regression: next(iter(alive)) used to raise StopIteration when
        # every peer had departed; the checker must report, not crash.
        grid = P2PGrid(GridConfig(n_peers=10, seed=11))
        for pid in list(grid.directory.alive_ids):
            grid._on_peer_departure(pid)
            grid.directory.depart(pid, grid.sim.now)
        problems = check_grid_invariants(grid)
        assert any("no alive peer" in p for p in problems)

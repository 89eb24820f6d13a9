"""Unit tests for latency analytics and the latency-aware Φ extension."""

import numpy as np
import pytest
from benchmarks.latency import (
    mean_overlay_hop_ms,
    mean_path_latency,
    path_latency_ms,
    setup_latency_ms,
)

from repro.core.selection import PeerInfo, PeerSelector, PhiWeights
from repro.core.resources import ResourceVector
from repro.grid import GridConfig, P2PGrid
from tests.core.test_selection import DictView

NAMES = ("cpu", "memory")


def rv(cpu, mem):
    return ResourceVector(NAMES, [cpu, mem])


class TestLatencyAwarePhi:
    def test_weights_include_latency_in_sum(self):
        w = PhiWeights(NAMES, [0.3, 0.3], 0.2, latency_weight=0.2)
        assert np.isclose(
            w.weights.sum() + w.bandwidth_weight + w.latency_weight, 1.0
        )

    def test_sum_violation_rejected(self):
        with pytest.raises(ValueError):
            PhiWeights(NAMES, [0.4, 0.4], 0.3, latency_weight=0.2)

    def test_latency_ref_validated(self):
        with pytest.raises(ValueError):
            PhiWeights(NAMES, [0.5, 0.3], 0.2, latency_ref_ms=0.0)

    def test_factory(self):
        w = PhiWeights.latency_aware(NAMES, latency_weight=0.25)
        assert w.latency_weight == pytest.approx(0.25)
        assert np.isclose(
            w.weights.sum() + w.bandwidth_weight + w.latency_weight, 1.0
        )

    def test_low_latency_scores_higher(self):
        w = PhiWeights.latency_aware(NAMES, latency_weight=0.3)
        near = w.phi(rv(100, 100), rv(50, 50), 1e6, 1e4, latency_ms=1.0)
        far = w.phi(rv(100, 100), rv(50, 50), 1e6, 1e4, latency_ms=200.0)
        assert near > far

    def test_zero_weight_ignores_latency(self):
        w = PhiWeights.uniform(NAMES)
        a = w.phi(rv(100, 100), rv(50, 50), 1e6, 1e4, latency_ms=1.0)
        b = w.phi(rv(100, 100), rv(50, 50), 1e6, 1e4, latency_ms=200.0)
        assert a == b

    def test_batch_matches_scalar_with_latency(self):
        w = PhiWeights.latency_aware(NAMES, latency_weight=0.2)
        req = rv(50, 50)
        rows = [(rv(80, 90), 5e5, 20.0), (rv(500, 400), 1e6, 150.0)]
        batch = w.phi_batch(
            np.stack([a.values for a, _, _ in rows]),
            req.values,
            np.array([b for _, b, _ in rows]),
            1e4,
            latencies_ms=np.array([l for _, _, l in rows]),
        )
        for k, (a, beta, lat) in enumerate(rows):
            assert np.isclose(batch[k], w.phi(a, req, beta, 1e4, lat))

    def test_batch_requires_latencies_when_weighted(self):
        w = PhiWeights.latency_aware(NAMES)
        with pytest.raises(ValueError):
            w.phi_batch(
                np.ones((2, 2)), np.ones(2), np.ones(2), 1.0,
            )

    def test_selector_prefers_near_peer_when_latency_aware(self):
        infos = [
            PeerInfo(1, rv(100, 100), 1e6, 1e9, 1.0),     # near
            PeerInfo(2, rv(110, 110), 1e6, 1e9, 200.0),   # slightly richer, far
        ]
        aware = PeerSelector(
            DictView(infos), PhiWeights.latency_aware(NAMES, latency_weight=0.4)
        )
        blind = PeerSelector(DictView(infos), PhiWeights.uniform(NAMES))
        rng = np.random.default_rng(0)
        assert aware.select_hop(0, [1, 2], rv(50, 50), 1e4, 1.0, rng).peer_id == 1
        assert blind.select_hop(0, [1, 2], rv(50, 50), 1e4, 1.0, rng).peer_id == 2


class TestLatencyAccounting:
    @pytest.fixture(scope="class")
    def admitted(self):
        grid = P2PGrid(GridConfig(n_peers=250, seed=17))
        agg = grid.make_aggregator("qsa")
        results = []
        for _ in range(15):
            r = agg.aggregate(grid.make_request("video-on-demand",
                                                duration=1.0))
            results.append(r)
        return grid, results

    def test_mean_overlay_hop(self, admitted):
        grid, _ = admitted
        assert mean_overlay_hop_ms(grid.network) == pytest.approx(
            np.mean(grid.network.latency_classes)
        )

    def test_path_latency_matches_manual_sum(self, admitted):
        grid, results = admitted
        r = next(r for r in results if r.session is not None)
        manual = sum(
            grid.network.latency_ms(s, d)
            for s, d, _ in r.session.connections()
        )
        assert path_latency_ms(r, grid.network) == pytest.approx(manual)

    @pytest.fixture(scope="class")
    def overloaded(self):
        """A grid too small for its workload: rejections guaranteed.

        Tiny capacities and many concurrent long high-QoS sessions
        exhaust the end systems, so some requests must come back without
        a session -- the path the admitted fixture cannot reach.
        """
        grid = P2PGrid(GridConfig(
            n_peers=20, seed=17, capacity_range=(60.0, 80.0)
        ))
        agg = grid.make_aggregator("qsa")
        results = [
            agg.aggregate(grid.make_request(
                "video-on-demand", qos_level="high", duration=500.0
            ))
            for _ in range(60)
        ]
        return grid, results

    def test_path_latency_requires_session(self, overloaded):
        grid, results = overloaded
        failed = [r for r in results if r.session is None]
        assert failed, "the overloaded grid must reject some requests"
        with pytest.raises(ValueError):
            path_latency_ms(failed[0], grid.network)

    def test_setup_latency_positive_and_larger_for_admitted(self, admitted):
        grid, results = admitted
        r = next(r for r in results if r.session is not None)
        total = setup_latency_ms(r, grid.network)
        assert total > 0
        # Discovery alone is a lower bound.
        assert total >= r.lookup_hops * mean_overlay_hop_ms(grid.network)

    def test_mean_path_latency(self, admitted):
        grid, results = admitted
        m = mean_path_latency(results, grid.network)
        assert m > 0

    def test_mean_path_latency_requires_admissions(self, admitted):
        grid, _ = admitted
        with pytest.raises(ValueError):
            mean_path_latency([], grid.network)

"""Unit tests for the Φ metric and the peer-selection step (paper §3.3)."""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.core.selection import PeerInfo, PeerSelector, PhiWeights

NAMES = ("cpu", "memory")


def rv(cpu, mem):
    return ResourceVector(NAMES, [cpu, mem])


class DictView:
    """A PerformanceView backed by a plain dict (observer-independent)."""

    def __init__(self, infos):
        self.infos = {i.peer_id: i for i in infos}

    def observe_block(self, observer, targets, latency=False, known=None):
        at = [i for i, pid in enumerate(targets) if pid in self.infos]
        infos = [self.infos[targets[i]] for i in at]
        return (
            np.array(at, dtype=np.intp),
            np.array([i.availability.values for i in infos]).reshape(-1, len(NAMES)),
            np.array([i.bandwidth_to_observer for i in infos], dtype=np.float64),
            np.array([i.uptime for i in infos], dtype=np.float64),
            np.array([i.latency for i in infos], dtype=np.float64)
            if latency else None,
        )


def info(pid, cpu=100.0, mem=100.0, bw=1e6, uptime=1e9, latency=20.0):
    return PeerInfo(pid, rv(cpu, mem), bw, uptime, latency)


UNIFORM = PhiWeights.uniform(NAMES)


class TestPhiWeights:
    def test_sum_to_one_enforced(self):
        with pytest.raises(ValueError):
            PhiWeights(NAMES, [0.5, 0.5], 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PhiWeights(NAMES, [-0.2, 0.7], 0.5)

    def test_normalize(self):
        w = PhiWeights(NAMES, [1, 1], 1, normalize=True)
        assert np.isclose(w.weights.sum() + w.bandwidth_weight, 1.0)

    def test_uniform(self):
        assert np.allclose(UNIFORM.weights, 1 / 3)

    def test_phi_formula(self):
        w = PhiWeights(NAMES, [0.5, 0.25], 0.25)
        # ra/r = [2, 4], beta/b = 8 -> 0.5*2 + 0.25*4 + 0.25*8 = 4.0
        val = w.phi(rv(200, 400), rv(100, 100), beta=800, bandwidth_req=100)
        assert np.isclose(val, 4.0)

    def test_phi_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        req = rv(50, 80)
        b = 100.0
        infos = [
            (rv(*rng.uniform(1, 1000, 2)), float(rng.uniform(1e3, 1e7)))
            for _ in range(20)
        ]
        batch = UNIFORM.phi_batch(
            np.stack([a.values for a, _ in infos]),
            req.values,
            np.array([beta for _, beta in infos]),
            b,
        )
        for k, (a, beta) in enumerate(infos):
            assert np.isclose(batch[k], UNIFORM.phi(a, req, beta, b))

    def test_zero_requirement_capped_not_inf(self):
        val = UNIFORM.phi(rv(10, 10), rv(0, 10), beta=100, bandwidth_req=0)
        assert np.isfinite(val)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            UNIFORM.phi(ResourceVector(("cpu",), [1]), rv(1, 1), 1, 1)


class TestPeerSelector:
    def test_picks_highest_phi(self):
        view = DictView([
            info(1, cpu=100, mem=100, bw=1e5),
            info(2, cpu=900, mem=900, bw=1e7),  # most abundant
            info(3, cpu=500, mem=500, bw=1e6),
        ])
        sel = PeerSelector(view, UNIFORM)
        out = sel.select_hop(0, [1, 2, 3], rv(50, 50), 1e4, 10.0,
                             np.random.default_rng(0))
        assert out.peer_id == 2
        assert not out.random_fallback
        assert out.n_known == 3

    def test_empty_candidates(self):
        sel = PeerSelector(DictView([]), UNIFORM)
        out = sel.select_hop(0, [], rv(1, 1), 1, 1, np.random.default_rng(0))
        assert out.peer_id is None

    def test_random_fallback_when_nothing_known(self):
        sel = PeerSelector(DictView([]), UNIFORM)
        rng = np.random.default_rng(0)
        out = sel.select_hop(0, [7, 8, 9], rv(1, 1), 1, 1, rng)
        assert out.peer_id in (7, 8, 9)
        assert out.random_fallback
        assert out.n_known == 0

    def test_uptime_filter_excludes_young_peers(self):
        view = DictView([
            info(1, cpu=900, mem=900, uptime=5.0),   # abundant but young
            info(2, cpu=100, mem=100, uptime=100.0),  # modest but stable
        ])
        sel = PeerSelector(view, UNIFORM)
        out = sel.select_hop(0, [1, 2], rv(50, 50), 1e4, 30.0,
                             np.random.default_rng(0))
        assert out.peer_id == 2

    def test_uptime_filter_can_be_disabled(self):
        view = DictView([
            info(1, cpu=900, mem=900, uptime=5.0),
            info(2, cpu=100, mem=100, uptime=100.0),
        ])
        sel = PeerSelector(view, UNIFORM, uptime_filter=False)
        out = sel.select_hop(0, [1, 2], rv(50, 50), 1e4, 30.0,
                             np.random.default_rng(0))
        assert out.peer_id == 1

    def test_feasibility_filter_excludes_overloaded(self):
        view = DictView([
            info(1, cpu=10, mem=10),    # cannot fit requirement
            info(2, cpu=60, mem=60),
        ])
        sel = PeerSelector(view, UNIFORM)
        out = sel.select_hop(0, [1, 2], rv(50, 50), 1e4, 1.0,
                             np.random.default_rng(0))
        assert out.peer_id == 2

    def test_bandwidth_feasibility(self):
        view = DictView([
            info(1, bw=1e3),  # starved link
            info(2, bw=1e6),
        ])
        sel = PeerSelector(view, UNIFORM)
        out = sel.select_hop(0, [1, 2], rv(1, 1), 1e4, 1.0,
                             np.random.default_rng(0))
        assert out.peer_id == 2

    def test_all_filtered_falls_back_to_best_known(self):
        """When every known candidate fails the filters and there are no
        unknown candidates, rank the known ones by Φ anyway."""
        view = DictView([
            info(1, cpu=10, mem=10, uptime=0.0),
            info(2, cpu=30, mem=30, uptime=0.0),
        ])
        sel = PeerSelector(view, UNIFORM)
        out = sel.select_hop(0, [1, 2], rv(50, 50), 1e4, 1e9,
                             np.random.default_rng(0))
        assert out.peer_id == 2  # higher Φ of the two

    def test_all_known_filtered_prefers_unknown_random(self):
        view = DictView([info(1, cpu=1, mem=1, uptime=0.0)])
        sel = PeerSelector(view, UNIFORM)
        out = sel.select_hop(0, [1, 2, 3], rv(50, 50), 1e4, 1e9,
                             np.random.default_rng(0))
        assert out.peer_id in (2, 3)
        assert out.random_fallback

    def test_single_qualified_shortcut(self):
        view = DictView([info(1, cpu=100, mem=100)])
        sel = PeerSelector(view, UNIFORM)
        out = sel.select_hop(0, [1], rv(50, 50), 1e4, 1.0,
                             np.random.default_rng(0))
        assert out.peer_id == 1
        assert out.phi is not None

    def test_phi_value_reported_matches_manual(self):
        view = DictView([info(1, cpu=200, mem=200, bw=2e4)])
        sel = PeerSelector(view, UNIFORM)
        req = rv(100, 100)
        out = sel.select_hop(0, [1], req, 1e4, 1.0, np.random.default_rng(0))
        assert np.isclose(out.phi, UNIFORM.phi(rv(200, 200), req, 2e4, 1e4))

    def test_load_balance_statistics(self):
        """Over many draws the Φ policy concentrates on the abundant peer,
        while random fallback spreads uniformly."""
        view = DictView([info(1, cpu=100, mem=100), info(2, cpu=101, mem=101)])
        sel = PeerSelector(view, UNIFORM)
        rng = np.random.default_rng(0)
        picks = [
            sel.select_hop(0, [1, 2], rv(50, 50), 1e4, 1.0, rng).peer_id
            for _ in range(50)
        ]
        assert set(picks) == {2}  # deterministic argmax

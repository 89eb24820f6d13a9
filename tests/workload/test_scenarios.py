"""Unit tests for time-varying workload scenarios."""

import numpy as np
import pytest
from benchmarks.scenarios import (
    ConstantRate,
    DiurnalRate,
    FlashCrowd,
    VariableRateGenerator,
)

from repro.services.applications import default_applications
from repro.sim import Simulator


def drive(profile, horizon, seed=0):
    sim = Simulator()
    seen = []
    gen = VariableRateGenerator(
        sim, profile, horizon,
        default_applications(),
        alive_peer_ids=lambda: [0, 1, 2],
        sink=seen.append,
        rng=np.random.default_rng(seed),
    )
    gen.start()
    sim.run()
    return seen


class TestProfiles:
    def test_constant_rate(self):
        p = ConstantRate(30.0)
        assert p.rate_at(0) == p.rate_at(99) == 30.0
        assert p.max_rate == 30.0
        with pytest.raises(ValueError):
            ConstantRate(0.0)

    def test_flash_crowd_window(self):
        p = FlashCrowd(base_rate=10.0, start=5.0, duration=3.0, peak=8.0,
                       hot_application="video-on-demand")
        assert p.rate_at(4.9) == 10.0
        assert p.rate_at(5.0) == 80.0
        assert p.rate_at(7.9) == 80.0
        assert p.rate_at(8.0) == 10.0
        assert p.max_rate == 80.0
        assert p.app_bias_at(6.0) == "video-on-demand"
        assert p.app_bias_at(4.0) is None

    def test_flash_crowd_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd(base_rate=10, start=0, duration=0)
        with pytest.raises(ValueError):
            FlashCrowd(base_rate=10, start=0, duration=1, peak=0.5)

    def test_diurnal_bounds(self):
        p = DiurnalRate(mean_rate=100.0, amplitude=0.5, period=100.0)
        rates = [p.rate_at(t) for t in np.linspace(0, 100, 200)]
        assert min(rates) >= 50.0 - 1e-9
        assert max(rates) <= 150.0 + 1e-9
        assert p.max_rate == 150.0

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            DiurnalRate(mean_rate=0.0)
        with pytest.raises(ValueError):
            DiurnalRate(mean_rate=10, amplitude=1.0)


class TestThinningGenerator:
    def test_constant_matches_homogeneous_count(self):
        seen = drive(ConstantRate(60.0), horizon=20.0)
        assert 1000 < len(seen) < 1450  # Poisson(1200) +- slack

    def test_flash_crowd_burst_visible_in_arrivals(self):
        p = FlashCrowd(base_rate=20.0, start=10.0, duration=5.0, peak=10.0)
        seen = drive(p, horizon=25.0)
        in_burst = [r for r in seen if 10.0 <= r.arrival_time < 15.0]
        outside = [r for r in seen if r.arrival_time < 10.0]
        rate_in = len(in_burst) / 5.0
        rate_out = len(outside) / 10.0
        assert rate_in > 5 * rate_out

    def test_hot_application_dominates_burst(self):
        p = FlashCrowd(base_rate=10.0, start=0.0, duration=20.0, peak=10.0,
                       hot_application="video-on-demand")
        seen = drive(p, horizon=20.0)
        hot = sum(1 for r in seen if r.application == "video-on-demand")
        # Excess share = 0.9 of burst traffic, plus 1/10 of the base mix.
        assert hot / len(seen) > 0.7

    def test_without_hot_app_mix_unbiased(self):
        p = FlashCrowd(base_rate=20.0, start=0.0, duration=30.0, peak=5.0)
        seen = drive(p, horizon=30.0)
        hot = sum(1 for r in seen if r.application == "video-on-demand")
        assert hot / len(seen) < 0.3

    def test_diurnal_modulates_arrivals(self):
        p = DiurnalRate(mean_rate=120.0, amplitude=0.8, period=40.0)
        seen = drive(p, horizon=40.0)
        # Peak quarter (around t=10) vs trough quarter (around t=30).
        peak = sum(1 for r in seen if 5 <= r.arrival_time < 15)
        trough = sum(1 for r in seen if 25 <= r.arrival_time < 35)
        assert peak > 2 * trough

    def test_horizon_respected(self):
        seen = drive(ConstantRate(100.0), horizon=3.0)
        assert all(r.arrival_time <= 3.0 for r in seen)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            VariableRateGenerator(
                sim, ConstantRate(1.0), 0.0, default_applications(),
                lambda: [0], lambda r: None, np.random.default_rng(0),
            )
        with pytest.raises(ValueError):
            VariableRateGenerator(
                sim, ConstantRate(1.0), 5.0, [],
                lambda: [0], lambda r: None, np.random.default_rng(0),
            )

    def test_ids_unique(self):
        seen = drive(ConstantRate(50.0), horizon=5.0)
        ids = [r.request_id for r in seen]
        assert len(set(ids)) == len(ids)

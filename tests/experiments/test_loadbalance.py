"""Unit tests for load-balance analytics."""

import numpy as np
import pytest
from benchmarks.loadbalance import UtilizationSampler, jain_index

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.sim import Simulator

NAMES = ("cpu", "memory")


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index(np.array([5.0, 5.0, 5.0])) == pytest.approx(1.0)

    def test_single_user_of_n(self):
        # Classic: one active out of n gives 1/n.
        assert jain_index(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(0.25)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(0, 10, size=rng.integers(1, 20))
            j = jain_index(x)
            assert 1.0 / len(x) - 1e-12 <= j <= 1.0 + 1e-12

    def test_scale_invariant(self):
        x = np.array([1.0, 2.0, 3.0])
        assert jain_index(x) == pytest.approx(jain_index(10 * x))

    def test_all_zero_is_fair(self):
        assert jain_index(np.zeros(5)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index(np.array([]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index(np.array([-1.0, 2.0]))


class TestUtilizationSampler:
    def make(self, n=4, period=1.0, horizon=None):
        sim = Simulator()
        d = SoAPeerDirectory(NAMES)
        for _ in range(n):
            d.create_peer(ResourceVector(NAMES, [100, 100]), 1e6, 0.0)
        return sim, d, UtilizationSampler(sim, d, period, horizon)

    def test_period_validation(self):
        sim, d, _ = self.make()
        with pytest.raises(ValueError):
            UtilizationSampler(sim, d, period=0.0)

    def test_idle_grid_fully_fair(self):
        sim, d, sampler = self.make()
        assert sampler.sample_once() == pytest.approx(1.0)
        assert sampler.mean_util[-1] == 0.0

    def test_detects_skew(self):
        sim, d, sampler = self.make()
        d.reserve(0, ResourceVector(NAMES, [80, 80]))
        j = sampler.sample_once()
        assert j < 1.0
        assert sampler.peak_util[-1] == pytest.approx(0.8)

    def test_periodic_sampling_until_horizon(self):
        sim, d, sampler = self.make(period=2.0, horizon=10.0)
        sampler.start()
        sim.run()
        assert len(sampler.times) == 5
        assert sampler.times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_report_aggregates(self):
        sim, d, sampler = self.make(period=1.0, horizon=5.0)
        d.reserve(0, ResourceVector(NAMES, [50, 50]))
        sampler.start()
        sim.run()
        report = sampler.report(skip_warmup=1)
        assert report.n_samples == 4
        assert 0 < report.mean_jain <= 1.0
        assert report.mean_utilization == pytest.approx(0.125)
        assert "jain" in str(report)

    def test_report_needs_samples(self):
        sim, d, sampler = self.make()
        with pytest.raises(ValueError):
            sampler.report()

    def test_float_dust_clamped(self):
        sim, d, sampler = self.make()
        # Push availability a hair above capacity (release clamps at
        # capacity + tolerance, so emulate the dust directly).
        d[0].available.values += 1e-10
        j = sampler.sample_once()  # must not raise
        assert 0 < j <= 1.0

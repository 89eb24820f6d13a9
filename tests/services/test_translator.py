"""Unit tests for the analytic QoS -> resource translator."""

import numpy as np
import pytest

from repro.services.translator import DEFAULT_BANDWIDTH_RANGES, AnalyticTranslator

#: 50 instances at each quality level, interleaved.
QUALITIES = np.tile([1, 2, 3], 50)


class TestValidation:
    def test_bad_base_demand(self):
        with pytest.raises(ValueError):
            AnalyticTranslator(base_demand=(0.0, 10.0))
        with pytest.raises(ValueError):
            AnalyticTranslator(base_demand=(50.0, 10.0))

    def test_negative_quality_factor(self):
        with pytest.raises(ValueError):
            AnalyticTranslator(quality_factor=-0.1)

    def test_bad_bandwidth_range(self):
        with pytest.raises(ValueError):
            AnalyticTranslator(bandwidth_ranges={1: (0.0, 100.0)})


class TestDraws:
    def test_resources_within_scaled_envelope(self):
        t = AnalyticTranslator(base_demand=(10, 50), quality_factor=0.5)
        block = t.resources_for(QUALITIES, np.random.default_rng(0))
        assert block.shape == (len(QUALITIES), 2)
        for quality in (1, 2, 3):
            scale = t.quality_scale(quality)
            rows = block[QUALITIES == quality]
            assert np.all(rows >= 10 * scale - 1e-9)
            assert np.all(rows <= 50 * scale + 1e-9)

    def test_quality_scale_monotone(self):
        t = AnalyticTranslator()
        assert t.quality_scale(1) < t.quality_scale(2) < t.quality_scale(3)
        assert list(t.quality_scale(np.array([1, 2, 3]))) == [
            t.quality_scale(q) for q in (1, 2, 3)
        ]

    def test_bandwidth_within_range(self):
        t = AnalyticTranslator()
        b = t.bandwidth_for(QUALITIES, np.random.default_rng(1))
        assert b.shape == QUALITIES.shape
        for quality, (lo, hi) in DEFAULT_BANDWIDTH_RANGES.items():
            values = b[QUALITIES == quality]
            assert np.all((lo <= values) & (values <= hi))

    def test_unknown_quality_rejected(self):
        t = AnalyticTranslator()
        with pytest.raises(ValueError, match="42"):
            t.bandwidth_for(np.array([1, 42]), np.random.default_rng(0))

    def test_empty_block(self):
        t = AnalyticTranslator()
        rng = np.random.default_rng(0)
        assert t.resources_for(np.array([], dtype=int), rng).shape == (0, 2)
        assert t.bandwidth_for(np.array([], dtype=int), rng).shape == (0,)

    def test_resource_names_respected(self):
        t = AnalyticTranslator(resource_names=("cpu", "memory", "disk"))
        block = t.resources_for(np.array([1]), np.random.default_rng(0))
        assert block.shape == (1, 3)

    def test_envelopes(self):
        t = AnalyticTranslator(base_demand=(10, 50), quality_factor=0.5)
        assert t.max_resource_demand() == 50 * t.quality_scale(3)
        assert t.max_bandwidth_demand() == max(
            hi for _, hi in DEFAULT_BANDWIDTH_RANGES.values()
        )

    def test_deterministic_under_seeded_rng(self):
        t = AnalyticTranslator()
        for draw in (t.resources_for, t.bandwidth_for):
            a = draw(QUALITIES, np.random.default_rng(5))
            b = draw(QUALITIES, np.random.default_rng(5))
            assert np.array_equal(a, b)

"""Unit tests for the sensitivity harness."""

import pytest
from benchmarks.sensitivity import KNOBS, SensitivityRow, sweep

from repro.experiments.config import default_scale


class TestTransformers:
    def test_replicas_transform(self):
        base = default_scale(100, 10)
        cfg = KNOBS["replicas"][1](base, 30.0)
        lo, hi = cfg.grid.catalog.replicas_per_instance
        assert lo == 20 and hi == 40

    def test_instances_transform(self):
        base = default_scale(100, 10)
        cfg = KNOBS["instances"][1](base, 15.0)
        lo, hi = cfg.grid.catalog.instances_per_service
        assert lo == 10 and hi == 20  # paper's own range at the midpoint

    def test_probe_period_transform(self):
        base = default_scale(100, 10)
        cfg = KNOBS["probe_period"][1](base, 3.0)
        assert cfg.grid.probing.period == 3.0
        assert cfg.grid.probing.budget == base.grid.probing.budget

    def test_quality_share_transform(self):
        base = default_scale(100, 10)
        cfg = KNOBS["quality_high_share"][1](base, 0.8)
        w = cfg.grid.catalog.quality_weights
        assert w[2] == pytest.approx(0.8)
        assert sum(w) == pytest.approx(1.0)


class TestSweep:
    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            sweep("bogus", [1.0])

    def test_row_gap(self):
        row = SensitivityRow("replicas", 60.0, 0.9, 0.7)
        assert row.gap == pytest.approx(0.2)
        assert "replicas" in repr(row)

    def test_tiny_sweep_runs(self):
        rows = sweep("probe_period", [1.0], rate=20.0, horizon=3.0)
        assert len(rows) == 1
        assert 0.0 <= rows[0].qsa <= 1.0
        assert 0.0 <= rows[0].random <= 1.0

"""Unit tests for regression tracking."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.grid import GridConfig
from repro.workload.generator import WorkloadConfig
from tests.experiments.regression import (
    compare_to_baseline,
    fingerprint,
    save_baseline,
)


def run(seed=0, algorithm="qsa", rate=20.0):
    cfg = ExperimentConfig(
        grid=GridConfig(n_peers=150, seed=seed),
        workload=WorkloadConfig(rate_per_min=rate, horizon=3.0,
                                duration_range=(1.0, 2.0)),
    )
    return run_experiment(cfg.with_algorithm(algorithm))


@pytest.fixture(scope="module")
def result():
    return run()


class TestRoundtrip:
    def test_identical_run_is_clean(self, result, tmp_path):
        path = save_baseline(result, tmp_path / "base.json")
        again = run()
        assert compare_to_baseline(again, path, tolerance=0.0) == []

    def test_fingerprint_fields(self, result):
        fp = fingerprint(result)
        assert fp["algorithm"] == "qsa"
        assert fp["n_peers"] == 150
        assert "breakdown" in fp

    def test_baseline_file_is_json(self, result, tmp_path):
        path = save_baseline(result, tmp_path / "sub/dir/base.json")
        loaded = json.loads(path.read_text())
        assert loaded["n_requests"] == result.n_requests


class TestDetection:
    def test_config_mismatch_reported(self, result, tmp_path):
        path = save_baseline(result, tmp_path / "base.json")
        other = run(seed=1)
        problems = compare_to_baseline(other, path)
        assert any("config mismatch" in p for p in problems)

    def test_psi_drift_reported(self, result, tmp_path):
        path = save_baseline(result, tmp_path / "base.json")
        doctored = json.loads(path.read_text())
        doctored["success_ratio"] = max(0.0, doctored["success_ratio"] - 0.2)
        path.write_text(json.dumps(doctored))
        problems = compare_to_baseline(result, path, tolerance=0.05)
        assert any("drifted" in p for p in problems)

    def test_tolerance_allows_small_drift(self, result, tmp_path):
        path = save_baseline(result, tmp_path / "base.json")
        doctored = json.loads(path.read_text())
        doctored["success_ratio"] += 0.01
        path.write_text(json.dumps(doctored))
        assert compare_to_baseline(result, path, tolerance=0.05) == []

    def test_breakdown_change_caught_in_exact_mode(self, result, tmp_path):
        path = save_baseline(result, tmp_path / "base.json")
        doctored = json.loads(path.read_text())
        doctored["breakdown"]["made-up-status"] = 1
        path.write_text(json.dumps(doctored))
        problems = compare_to_baseline(result, path, tolerance=0.0)
        assert any("breakdown changed" in p for p in problems)

    def test_negative_tolerance_rejected(self, result, tmp_path):
        path = save_baseline(result, tmp_path / "base.json")
        with pytest.raises(ValueError):
            compare_to_baseline(result, path, tolerance=-0.1)

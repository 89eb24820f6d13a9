"""Multi-seed replication through the paired sweep, and its t-interval."""

import numpy as np
import pytest
from scipy import stats

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import (
    Row,
    SweepTable,
    algorithm_variants,
    paired_sweep,
    t_interval,
)
from repro.grid import GridConfig
from repro.workload.generator import WorkloadConfig


class TestTInterval:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            t_interval([])

    def test_single_observation_infinite(self):
        mean, hw = t_interval([0.5])
        assert mean == 0.5
        assert hw == float("inf")

    def test_identical_observations_zero_width(self):
        mean, hw = t_interval([0.7, 0.7, 0.7])
        assert mean == pytest.approx(0.7)
        assert hw == pytest.approx(0.0)

    def test_known_small_sample(self):
        # n=2: t(df=1)=12.706, sem = std/sqrt(2).
        mean, hw = t_interval([0.0, 1.0])
        sem = np.std([0.0, 1.0], ddof=1) / np.sqrt(2)
        assert mean == 0.5
        assert hw == pytest.approx(12.706 * sem)

    def test_critical_value_tracks_exact_t(self):
        # Every df in 1..5000: never narrower than exact t beyond the
        # table's 3-digit rounding, and at most 2 % wider.
        x = np.random.default_rng(0).normal(0.5, 0.1, size=5001)
        dfs = np.arange(1, 5001)
        ratios = np.array([
            t_interval(x[: df + 1])[1]
            / (x[: df + 1].std(ddof=1) / np.sqrt(df + 1))
            for df in dfs
        ]) / stats.t.ppf(0.975, dfs)
        assert ratios.min() >= 0.9997
        assert ratios.max() <= 1.0201

    def test_coverage_simulation(self):
        """~95% of intervals should cover the true mean."""
        rng = np.random.default_rng(1)
        covered = 0
        trials = 300
        for _ in range(trials):
            x = rng.normal(0.0, 1.0, size=8)
            mean, hw = t_interval(x)
            covered += abs(mean) <= hw
        assert 0.88 <= covered / trials <= 1.0


class _Psi:
    """A bare ψ standing in for a run's result."""

    def __init__(self, success_ratio):
        self.success_ratio = success_ratio


class TestReplicationResult:
    """The table of a seed replication, read pair by pair."""

    def make(self):
        return SweepTable([
            Row("x", variant, seed, _Psi(psi))
            for seed, qsa, rnd in ((0, 0.9, 0.7), (1, 0.8, 0.75), (2, 0.85, 0.9))
            for variant, psi in (("qsa", qsa), ("random", rnd))
        ])

    def test_wins(self):
        r = self.make()
        assert r.wins("qsa", "random") == 2
        assert r.wins("random", "qsa") == 1
        assert r.wins("qsa", "qsa") == 0

    def test_dominates(self):
        r = self.make()
        assert r.wins("qsa", "random") < len(r.select(variant="qsa"))

    def test_paired_differences(self):
        d = self.make().paired_differences("qsa", "random")
        assert d == pytest.approx([0.2, 0.05, -0.05])

    def test_psi_in_run_order(self):
        assert self.make().psi(variant="random") == [0.7, 0.75, 0.9]

    def test_select_matches_every_key(self):
        r = self.make()
        assert len(r.select(seed=1)) == 2
        assert len(r.select(variant="qsa", seed=1)) == 1
        assert r.select(label="y") == []


class TestReplicate:
    @pytest.fixture(scope="class")
    def replication(self):
        base = ExperimentConfig(
            grid=GridConfig(n_peers=200),
            workload=WorkloadConfig(rate_per_min=20.0, horizon=4.0,
                                    duration_range=(1.0, 3.0)),
        )
        return paired_sweep(
            [("base", base)], algorithm_variants("qsa", "random"), range(3)
        )

    def test_runs_all_seeds(self, replication):
        assert [r.seed for r in replication.select(variant="qsa")] == [0, 1, 2]

    def test_qsa_wins_most_seeds(self, replication):
        assert replication.wins("qsa", "random") >= 2

    def test_ratios_in_bounds(self, replication):
        assert all(0.0 <= r <= 1.0 for r in replication.psi())

    def test_n_seeds_validated(self):
        with pytest.raises(ValueError):
            paired_sweep(
                [("base", ExperimentConfig())], algorithm_variants("qsa"),
                range(0),
            )

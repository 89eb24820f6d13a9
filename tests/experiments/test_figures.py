"""Miniature versions of the figure experiments (shape assertions).

These run the real figure code paths on tiny populations so the full
suite stays fast; the benches run the calibrated scales and record the
numbers in EXPERIMENTS.md.
"""


import pytest

from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import algorithm_variants, paired_sweep
from repro.grid import ALGORITHMS, GridConfig
from repro.network.churn import ChurnConfig
from repro.workload.generator import WorkloadConfig


def winner_at(sweep: figures.SweepResult, i: int) -> str:
    """The algorithm with the highest ψ at the sweep's ``i``-th point."""
    return max(sweep.ratios, key=lambda a: sweep.ratios[a][i])


def tiny_sweep(x_values, make_config, seed=0):
    """A Fig. 5 / Fig. 7-shaped sweep of all three algorithms."""
    table = paired_sweep(
        [(x, make_config(x)) for x in x_values],
        algorithm_variants(*ALGORITHMS),
        (seed,),
    )
    return figures.SweepResult.of("x", x_values, table)


def tiny(rate, horizon, churn=0.0):
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=250,
            churn=ChurnConfig(rate_per_min=churn) if churn > 0 else None,
        ),
        workload=WorkloadConfig(rate_per_min=rate, horizon=horizon,
                                duration_range=(1.0, 10.0)),
    )


class TestSweepMachinery:
    def test_sweep_runs_all_algorithms(self):
        sweep = tiny_sweep([5.0], lambda x: tiny(x, 4.0))
        assert set(sweep.ratios) == {"qsa", "random", "fixed"}
        assert all(len(v) == 1 for v in sweep.ratios.values())

    def test_winner_at(self):
        sweep = figures.SweepResult(
            "x", [0], {"qsa": [0.9], "random": [0.5], "fixed": [0.1]}
        )
        assert winner_at(sweep, 0) == "qsa"


@pytest.mark.slow
class TestFigureShapes:
    @pytest.fixture(scope="class")
    def mini_fig5(self):
        return tiny_sweep([10.0, 60.0], lambda r: tiny(r, 6.0), seed=3)

    def test_fig5_qsa_wins_everywhere(self, mini_fig5):
        for i in range(2):
            assert winner_at(mini_fig5, i) == "qsa"

    def test_fig5_fixed_last(self, mini_fig5):
        for i in range(2):
            r = mini_fig5.ratios
            assert r["fixed"][i] <= r["random"][i] + 0.05

    def test_series_machinery(self):
        table = paired_sweep([(30.0, tiny(30.0, 6.0))],
                             algorithm_variants(*ALGORITHMS), (4,))
        series = figures.SeriesResult.of(table, bin_minutes=2.0)
        assert set(series.ratios) == {"qsa", "random", "fixed"}
        assert len(series.times) == 3
        assert set(series.overall) == {"qsa", "random", "fixed"}

    def test_churn_sweep_degrades_qsa(self):
        sweep = tiny_sweep([0.0, 8.0], lambda c: tiny(30.0, 6.0, churn=c), seed=5)
        assert sweep.ratios["qsa"][1] <= sweep.ratios["qsa"][0] + 0.05


class TestPublicFigureAPIs:
    """The public figureN() helpers accept custom (tiny) parameters."""

    def test_figure5_signature(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        sweep = figures.figure5(rates=(100,), horizon=3.0, seed=6)
        assert sweep.x_values == [100]

    def test_figure7_signature(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        sweep = figures.figure7(churn_rates=(0,), rate=50.0, horizon=3.0, seed=6)
        assert sweep.x_values == [0]

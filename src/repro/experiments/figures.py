"""Reproductions of the paper's four result figures (§4.2).

Each function runs the three §4.1 algorithms over identical grids,
workloads and churn schedules (paired by the named-RNG-stream design) and
returns the series the corresponding figure plots.  The ``rate`` and
``churn`` arguments are in *paper units* (per-minute counts at the
10^4-peer scale); :func:`repro.experiments.config.default_scale` rescales
them with the population.

Expected shapes (see EXPERIMENTS.md for measured numbers):

* **Fig. 5** -- average ψ vs request rate, no churn: QSA > random >>
  fixed at every rate; all decrease with load.
* **Fig. 6** -- ψ fluctuation at 200 req/min, no churn, sampled every
  2 min: QSA consistently on top; gaps up to ~15 % (random) and ~90 %
  (fixed).
* **Fig. 7** -- average ψ vs churn rate at 100 req/min: steep degradation
  for every algorithm even at <= 2 % peers/min; QSA degrades least.
* **Fig. 8** -- ψ fluctuation at churn 100 peers/min, 100 req/min.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.config import default_scale
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweep import SweepTable, algorithm_variants, paired_sweep
from repro.grid import ALGORITHMS

__all__ = [
    "ALGORITHMS",
    "SweepResult",
    "SeriesResult",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
]


@dataclass
class SweepResult:
    """x -> per-algorithm average ψ (Fig. 5 / Fig. 7 shape)."""

    x_label: str
    x_values: List[float]
    ratios: Dict[str, List[float]]
    runs: Dict[str, List[ExperimentResult]] = field(default_factory=dict)

    @classmethod
    def of(cls, x_label: str, x_values: Sequence[float],
           table: SweepTable) -> "SweepResult":
        """The view of a one-seed sweep whose labels are ``x_values``."""
        return cls(
            x_label,
            list(x_values),
            {v: table.psi(variant=v) for v in table.variants},
            {v: [r.result for r in table.select(variant=v)]
             for v in table.variants},
        )


@dataclass
class SeriesResult:
    """time -> per-algorithm windowed ψ (Fig. 6 / Fig. 8 shape)."""

    times: np.ndarray
    ratios: Dict[str, np.ndarray]
    overall: Dict[str, float]

    @classmethod
    def of(cls, table: SweepTable, bin_minutes: float = 2.0) -> "SeriesResult":
        """The view of a one-point, one-seed sweep."""
        times = None
        ratios: Dict[str, np.ndarray] = {}
        for row in table.rows:
            times, ratios[row.variant] = row.result.series(bin_minutes)
        return cls(times, ratios, {row.variant: row.psi for row in table.rows})


def figure5(
    rates: Sequence[float] = (50, 100, 200, 400, 600, 800, 1000),
    horizon: float = 400.0,
    seed: int = 0,
) -> SweepResult:
    """Fig. 5: average ψ vs request rate (req/min), no churn, 400 min."""
    table = paired_sweep(
        [(rate, default_scale(rate_per_min=rate, horizon=horizon))
         for rate in rates],
        algorithm_variants(*ALGORITHMS),
        (seed,),
    )
    return SweepResult.of("request rate (req/min)", rates, table)


def figure6(
    rate: float = 200.0,
    horizon: float = 100.0,
    bin_minutes: float = 2.0,
    seed: int = 0,
) -> SeriesResult:
    """Fig. 6: ψ fluctuation at 200 req/min over 100 min, no churn."""
    config = default_scale(rate_per_min=rate, horizon=horizon)
    table = paired_sweep([(rate, config)], algorithm_variants(*ALGORITHMS), (seed,))
    return SeriesResult.of(table, bin_minutes)


def figure7(
    churn_rates: Sequence[float] = (0, 25, 50, 100, 150, 200),
    rate: float = 100.0,
    horizon: float = 60.0,
    seed: int = 0,
) -> SweepResult:
    """Fig. 7: average ψ vs churn rate (peers/min), 100 req/min, 60 min."""
    table = paired_sweep(
        [(churn, default_scale(rate_per_min=rate, horizon=horizon,
                               churn_per_min=churn))
         for churn in churn_rates],
        algorithm_variants(*ALGORITHMS),
        (seed,),
    )
    return SweepResult.of("churn rate (peers/min)", churn_rates, table)


def figure8(
    rate: float = 100.0,
    churn: float = 100.0,
    horizon: float = 60.0,
    bin_minutes: float = 2.0,
    seed: int = 0,
) -> SeriesResult:
    """Fig. 8: ψ fluctuation over 60 min at churn 100 peers/min."""
    config = default_scale(rate_per_min=rate, horizon=horizon, churn_per_min=churn)
    table = paired_sweep([(churn, config)], algorithm_variants(*ALGORITHMS), (seed,))
    return SeriesResult.of(table, bin_minutes)

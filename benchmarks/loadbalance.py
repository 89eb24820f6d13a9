"""Load-balance analytics: measuring the paper's advantage (3).

§1 claims dynamic peer selection yields "(3) load balance in
heterogeneous environments", and §4.2 explains QSA's win partly by
"always selecting the peers which have the most abundant resources".
This module quantifies that:

* :class:`UtilizationSampler` -- a self-rescheduling simulator callback
  that periodically snapshots every alive peer's end-system utilization
  (1 - available/capacity, averaged over resource dimensions).
* :func:`jain_index` -- Jain's fairness index
  ``(Σx)² / (n·Σx²)`` ∈ (0, 1]; 1 = perfectly even utilization.
* :func:`utilization_report` -- summary statistics over a run's samples.

``benchmarks/bench_load_balance.py`` uses these to show QSA's Φ rule
producing measurably fairer utilization than blind random placement on
the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.network.soa import SoAPeerDirectory
from repro.sim.engine import Simulator

__all__ = ["jain_index", "UtilizationSampler", "UtilizationReport"]


def jain_index(values: np.ndarray) -> float:
    """Jain's fairness index of a non-negative sample (1 = perfectly fair).

    Degenerate all-zero samples count as perfectly fair (an idle grid is
    a balanced grid).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("fairness of an empty sample is undefined")
    if np.any(x < 0):
        raise ValueError("utilization values must be non-negative")
    total = x.sum()
    if total == 0:
        return 1.0
    return float(total**2 / (x.size * np.dot(x, x)))


@dataclass
class UtilizationReport:
    """Summary of sampled per-peer utilizations over a run."""

    mean_utilization: float
    peak_utilization: float
    mean_jain: float
    min_jain: float
    mean_jain_headroom: float
    n_samples: int

    def __str__(self) -> str:
        return (
            f"util mean={self.mean_utilization:.3f} "
            f"peak={self.peak_utilization:.3f} "
            f"jain mean={self.mean_jain:.3f} min={self.min_jain:.3f} "
            f"headroom jain={self.mean_jain_headroom:.3f} "
            f"({self.n_samples} samples)"
        )


class UtilizationSampler:
    """Samples per-peer end-system utilization on a fixed period."""

    def __init__(
        self,
        sim: Simulator,
        directory: SoAPeerDirectory,
        period: float = 5.0,
        horizon: float | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError("sampling period must be positive")
        self.sim = sim
        self.directory = directory
        self.period = period
        self.horizon = horizon
        self.times: List[float] = []
        self.jain: List[float] = []
        #: Jain index over *remaining headroom* -- the water-filling
        #: evenness Φ's availability-seeking rule targets.
        self.jain_headroom: List[float] = []
        self.mean_util: List[float] = []
        self.peak_util: List[float] = []

    def sample_once(self) -> float:
        """Take one utilization snapshot; returns the Jain index."""
        utils = []
        headroom = []
        for peer in self.directory.alive_peers():
            with np.errstate(invalid="ignore"):
                u = 1.0 - peer.available.values / peer.capacity.values
            # Reserve/release float dust can leave availability a few
            # ulps above capacity; clamp to the meaningful range.
            utils.append(float(np.clip(np.mean(u), 0.0, 1.0)))
            headroom.append(float(np.clip(peer.available.values.mean(), 0.0,
                                          None)))
        arr = np.asarray(utils)
        j = jain_index(arr)
        self.times.append(self.sim.now)
        self.jain.append(j)
        self.jain_headroom.append(jain_index(np.asarray(headroom)))
        self.mean_util.append(float(arr.mean()) if arr.size else 0.0)
        self.peak_util.append(float(arr.max()) if arr.size else 0.0)
        return j

    def _schedule_next(self) -> None:
        if self.horizon is None or self.sim.now < self.horizon:
            self.sim.call_in(self.period, self._sample)

    def _sample(self) -> None:
        self.sample_once()
        self._schedule_next()

    def start(self) -> None:
        self.sim.call_in(0.0, self._schedule_next)

    def report(self, skip_warmup: int = 1) -> UtilizationReport:
        """Aggregate samples (dropping the first ``skip_warmup``)."""
        if len(self.times) <= skip_warmup:
            raise ValueError("not enough samples collected")
        jain = self.jain[skip_warmup:]
        mean_u = self.mean_util[skip_warmup:]
        peak_u = self.peak_util[skip_warmup:]
        return UtilizationReport(
            mean_utilization=float(np.mean(mean_u)),
            peak_utilization=float(np.max(peak_u)),
            mean_jain=float(np.mean(jain)),
            min_jain=float(np.min(jain)),
            mean_jain_headroom=float(np.mean(self.jain_headroom[skip_warmup:])),
            n_samples=len(jain),
        )

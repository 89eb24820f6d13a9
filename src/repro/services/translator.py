"""QoS -> resource requirement translation (paper assumption 2, §3.1).

The paper assumes "there exists a translator that can map the
application-level QoS specifications into the resource requirements",
citing analytical translation and offline/online profiling services
[3, 13, 21].  We implement the analytical flavour: a deterministic-in-
distribution mapping from an instance's output *quality* to its
end-system resource demand ``R`` and outgoing bandwidth ``b``.

Higher quality output costs more of everything:

* each end-system resource dimension draws a base demand and scales it by
  ``1 + quality_factor * (quality - 1)``;
* bandwidth draws from a per-quality range (low-quality streams fit
  modem-class links; high-quality streams need broadband).

The randomness models instance-to-instance implementation diversity
("each service instance is also randomly assigned values for its Qin,
Qout and R parameters", §4.1); it is driven by the caller's RNG stream so
catalogs are reproducible.

Both draws take a *block* of output qualities -- one per instance of a
service -- and return one block: :meth:`AnalyticTranslator.resources_for`
an ``(n, m)`` array whose row ``i`` is instance ``i``'s ``R``,
:meth:`AnalyticTranslator.bandwidth_for` an ``(n,)`` array of ``b``.  The
catalog therefore draws each column with one call per service instead of
one call per instance.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["AnalyticTranslator", "DEFAULT_BANDWIDTH_RANGES"]

#: Outgoing-bandwidth ranges (bps) per output quality level -- 2002-era
#: stream rates.  Low/average flows fit every bottleneck class (including
#: 56 kbps modem pairs, mostly); high-quality flows need at least the
#: 100 kbps class.  Keeping requirements small relative to the class
#: capacities puts the simulation in the paper's regime, where success is
#: limited by end-system load (and churn), not by raw link feasibility.
DEFAULT_BANDWIDTH_RANGES: Dict[int, Tuple[float, float]] = {
    1: (5.0e3, 2.0e4),
    2: (2.0e4, 4.0e4),
    3: (4.0e4, 8.0e4),
}


class AnalyticTranslator:
    """Maps output quality -> ``(R, b)`` requirement draws.

    Parameters
    ----------
    resource_names:
        End-system resource dimensions (the paper uses ``[cpu, memory]``).
    base_demand:
        ``(lo, hi)`` uniform range for the per-dimension base demand, in
        the paper's abstract resource units.
    quality_factor:
        Multiplicative slope of demand in the quality level.
    bandwidth_ranges:
        Per-quality ``(lo, hi)`` bandwidth ranges in bps.
    """

    def __init__(
        self,
        resource_names: Sequence[str] = ("cpu", "memory"),
        base_demand: Tuple[float, float] = (10.0, 50.0),
        quality_factor: float = 0.5,
        bandwidth_ranges: Dict[int, Tuple[float, float]] | None = None,
    ) -> None:
        self.resource_names = tuple(resource_names)
        lo, hi = base_demand
        if not 0 < lo <= hi:
            raise ValueError(f"invalid base demand range ({lo}, {hi})")
        self.base_demand = (float(lo), float(hi))
        if quality_factor < 0:
            raise ValueError("quality_factor must be non-negative")
        self.quality_factor = float(quality_factor)
        self.bandwidth_ranges = dict(bandwidth_ranges or DEFAULT_BANDWIDTH_RANGES)
        for q, (blo, bhi) in self.bandwidth_ranges.items():
            if not 0 < blo <= bhi:
                raise ValueError(f"invalid bandwidth range for quality {q}")

    def quality_scale(self, quality: int | np.ndarray) -> float | np.ndarray:
        """Demand multiplier for an output quality level (or a block of them)."""
        return 1.0 + self.quality_factor * (quality - 1)

    def resources_for(
        self, qualities: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``R = f(Qin, Qout)`` for a block of output qualities.

        One ``(len(qualities), len(resource_names))`` uniform draw of base
        demands, each row scaled by its quality; row ``i`` is instance
        ``i``'s requirement vector.
        """
        qualities = np.asarray(qualities)
        base = rng.uniform(
            *self.base_demand, size=(len(qualities), len(self.resource_names))
        )
        return base * self.quality_scale(qualities)[:, None]

    def bandwidth_for(
        self, qualities: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw the outgoing bandwidth ``b`` (bps) for a block of qualities.

        One uniform draw per entry, between the bounds of its quality's
        range.
        """
        try:
            bounds = np.array(
                [self.bandwidth_ranges[q] for q in np.asarray(qualities).tolist()],
                dtype=np.float64,
            ).reshape(-1, 2)
        except KeyError as err:
            raise ValueError(
                f"no bandwidth range configured for quality level {err.args[0]}"
            ) from None
        return rng.uniform(bounds[:, 0], bounds[:, 1])

    def max_resource_demand(self) -> float:
        """Upper bound of any single dimension's demand (for normalizers)."""
        max_quality = max(self.bandwidth_ranges)
        return float(self.base_demand[1] * self.quality_scale(max_quality))

    def max_bandwidth_demand(self) -> float:
        """Upper bound of the bandwidth requirement (for normalizers)."""
        return max(hi for _, hi in self.bandwidth_ranges.values())

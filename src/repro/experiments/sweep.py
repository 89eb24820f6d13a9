"""One paired sweep: points × variants × seeds through one run loop.

Each subsystem draws from its own named RNG stream, so the variants run
at one point and seed see the same peers, catalog, churn and requests:
their differences are paired (§4.1).  The figures, the ablations, the
sensitivity knobs and seed replication are each a :func:`paired_sweep`
spec plus a view over the :class:`SweepTable` it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment

__all__ = [
    "Row",
    "SweepTable",
    "Variant",
    "algorithm_variants",
    "paired_sweep",
    "t_interval",
]


@dataclass(frozen=True)
class Variant:
    """One arm: a named algorithm (``algorithm`` defaults to ``name``)
    with its options, or a ``make_aggregator`` factory (``grid ->
    aggregator``) for an aggregator the grid cannot build by name."""

    name: str
    algorithm: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    make_aggregator: Optional[Callable] = None

    def configure(self, config: ExperimentConfig) -> ExperimentConfig:
        if self.make_aggregator is not None:
            return config
        return config.with_algorithm(self.algorithm or self.name, **self.options)


def algorithm_variants(*algorithms: str) -> Tuple[Variant, ...]:
    return tuple(Variant(name) for name in algorithms)


@dataclass(frozen=True)
class Row:
    """One run: the point's label, the variant, the seed, the result."""

    label: Hashable
    variant: str
    seed: int
    result: ExperimentResult

    @property
    def psi(self) -> float:
        return self.result.success_ratio


@dataclass
class SweepTable:
    """The long table of a sweep, in run order (point, seed, variant)."""

    rows: List[Row]

    @property
    def variants(self) -> List[str]:
        return list(dict.fromkeys(row.variant for row in self.rows))

    def select(self, **keys) -> List[Row]:
        """The rows whose ``label`` / ``variant`` / ``seed`` equal ``keys``."""
        return [row for row in self.rows
                if all(getattr(row, k) == v for k, v in keys.items())]

    def psi(self, **keys) -> List[float]:
        return [row.psi for row in self.select(**keys)]

    def paired_differences(self, a: str, b: str, **keys) -> List[float]:
        """ψ(a) − ψ(b) for each (point, seed) both variants ran."""
        other = {(r.label, r.seed): r.psi for r in self.select(variant=b, **keys)}
        return [r.psi - other[(r.label, r.seed)]
                for r in self.select(variant=a, **keys)]

    def wins(self, a: str, b: str, **keys) -> int:
        """Paired runs in which ``a`` has the strictly higher ψ."""
        return sum(d > 0 for d in self.paired_differences(a, b, **keys))


def paired_sweep(
    points: Iterable[Tuple[Hashable, ExperimentConfig]],
    variants: Sequence[Variant],
    seeds: Sequence[int],
) -> SweepTable:
    """Run every variant at every ``(label, config)`` point under every
    seed (which replaces the config's own)."""
    if not seeds:
        raise ValueError("need at least one seed")
    rows: List[Row] = []
    for label, config in points:
        for seed in seeds:
            seeded = config.with_seed(seed)
            for variant in variants:
                result = run_experiment(
                    variant.configure(seeded),
                    make_aggregator=variant.make_aggregator,
                )
                rows.append(Row(label, variant.name, seed, result))
    return SweepTable(rows)


#: Two-sided 95 % Student-t critical values, df -> t.  A df between
#: rows takes the nearest lower row: over df 1-5000 that is 0.9997 to
#: 1.020 times the exact quantile, never a materially narrower interval.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    12: 2.179, 15: 2.131, 20: 2.086, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


def t_interval(values: Iterable[float]) -> Tuple[float, float]:
    """95 % confidence half-width around the mean of ``values``.

    Returns ``(mean, half_width)``; a single observation yields an
    infinite half-width (you cannot estimate variance from one run).
    """
    x = np.asarray(list(values), dtype=np.float64)
    if x.size == 0:
        raise ValueError("no observations")
    mean = float(x.mean())
    if x.size == 1:
        return mean, float("inf")
    df = x.size - 1
    t = _T95[max(k for k in _T95 if k <= df)]
    sem = float(x.std(ddof=1)) / math.sqrt(x.size)
    return mean, t * sem

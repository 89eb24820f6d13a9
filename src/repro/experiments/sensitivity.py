"""Parameter sensitivity analysis for the reproduction's free knobs.

The paper fixes its parameters (§4.1); a reproduction should show how
sensitive the headline result is to the ones the paper left loose.
:func:`sweep` varies one knob at a time around the §4.1 operating point
and reports ψ for QSA and random (the gap is the headline), producing
the table `benchmarks/bench_sensitivity.py` prints.

Supported knobs
---------------
``replicas``          replicas-per-instance range midpoint (paper: 40-80)
``instances``         instances-per-service range midpoint (paper: 10-20)
``probe_period``      probing staleness bound in minutes (paper: ~1)
``quality_high_share``  share of high-quality instances in the catalog
``phi_bandwidth_weight``  ω_{m+1}: bandwidth's weight inside Φ
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, default_scale
from repro.experiments.sweep import algorithm_variants, paired_sweep
from repro.probing.prober import ProbingConfig

__all__ = ["KNOBS", "SensitivityRow", "sweep"]


def _with_replicas(base: ExperimentConfig, mid: float) -> ExperimentConfig:
    lo, hi = int(round(mid * 2 / 3)), int(round(mid * 4 / 3))
    catalog = replace(
        base.grid.catalog, replicas_per_instance=(max(1, lo), max(1, hi))
    )
    return replace(base, grid=replace(base.grid, catalog=catalog))


def _with_instances(base: ExperimentConfig, mid: float) -> ExperimentConfig:
    lo, hi = int(round(mid * 2 / 3)), int(round(mid * 4 / 3))
    catalog = replace(
        base.grid.catalog, instances_per_service=(max(1, lo), max(1, hi))
    )
    return replace(base, grid=replace(base.grid, catalog=catalog))


def _with_probe_period(base: ExperimentConfig, period: float) -> ExperimentConfig:
    probing = ProbingConfig(
        budget=base.grid.probing.budget,
        period=period,
        ttl=base.grid.probing.ttl,
    )
    return replace(base, grid=replace(base.grid, probing=probing))


def _with_quality_share(base: ExperimentConfig, share: float) -> ExperimentConfig:
    rest = (1.0 - share) / 2.0
    catalog = replace(
        base.grid.catalog, quality_weights=(rest, rest, share)
    )
    return replace(base, grid=replace(base.grid, catalog=catalog))


#: knob name -> (paper operating point, config transformer)
KNOBS: Dict[str, Tuple[float, Callable[[ExperimentConfig, float], ExperimentConfig]]] = {
    "replicas": (60.0, _with_replicas),
    "instances": (15.0, _with_instances),
    "probe_period": (1.0, _with_probe_period),
    "quality_high_share": (0.5, _with_quality_share),
}


@dataclass(frozen=True)
class SensitivityRow:
    """ψ for both algorithms at one knob value."""

    knob: str
    value: float
    qsa: float
    random: float

    @property
    def gap(self) -> float:
        return self.qsa - self.random


def sweep(
    knob: str,
    values: Sequence[float],
    rate: float = 200.0,
    horizon: float = 20.0,
    seed: int = 0,
) -> List[SensitivityRow]:
    """ψ(QSA) and ψ(random) as one knob varies; §4.1 elsewhere."""
    try:
        _default, transform = KNOBS[knob]
    except KeyError:
        raise ValueError(
            f"unknown knob {knob!r}; choose from {sorted(KNOBS)}"
        ) from None
    table = paired_sweep(
        [(value, transform(default_scale(rate, horizon), value))
         for value in values],
        algorithm_variants("qsa", "random"),
        (seed,),
    )
    return [
        SensitivityRow(knob, value, qsa, rnd)
        for value, qsa, rnd in zip(
            values, table.psi(variant="qsa"), table.psi(variant="random")
        )
    ]

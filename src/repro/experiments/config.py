"""Experiment configuration, the two standard scales, the named scenarios.

The paper simulates 10^4 peers; the full-horizon figure runs take hours
of wall-clock in pure Python at that scale, so the default scale shrinks
the population (and the request rates proportionally) while preserving
every *ratio* the results depend on: requests per peer per minute,
replicas per instance relative to population, and the probe budget
fraction ``M/N = 1%``.

Set the environment variable ``REPRO_PAPER_SCALE=1`` (checked by the
benches) or call :func:`paper_scale` to run the original numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from repro.grid import GridConfig
from repro.network.churn import ChurnConfig
from repro.probing.prober import ProbingConfig
from repro.services.catalog import CatalogConfig
from repro.workload.generator import WorkloadConfig

__all__ = [
    "ExperimentConfig",
    "SCENARIOS",
    "default_scale",
    "paper_scale",
    "scale_factor",
    "is_paper_scale",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation run: grid + workload + algorithm."""

    grid: GridConfig = field(default_factory=GridConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    algorithm: str = "qsa"
    algorithm_options: Dict = field(default_factory=dict)
    #: Extra minutes to run after generation stops so sessions resolve.
    drain_minutes: float = 61.0
    #: Write the run's telemetry event stream (JSONL) here; setting a
    #: path forces full telemetry recording on the grid for this run.
    telemetry_export: Optional[str] = None
    #: Write the run's determinism-sanitizer ledger (JSONL) here; setting
    #: a path forces ``GridConfig.sanitize`` on for this run.  Compare
    #: two ledgers with ``repro sanitize compare A B``.
    sanitize_export: Optional[str] = None

    def with_algorithm(self, name: str, **options) -> "ExperimentConfig":
        return replace(self, algorithm=name, algorithm_options=dict(options))

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, grid=replace(self.grid, seed=seed))

    def with_telemetry(self, export_path: str) -> "ExperimentConfig":
        return replace(self, telemetry_export=export_path)

    def with_sanitize(self, export_path: str) -> "ExperimentConfig":
        """The same run with the determinism sanitizer recording."""
        return replace(self, sanitize_export=export_path)

    def with_faults(self, plan) -> "ExperimentConfig":
        """The same run under a :class:`~repro.faults.FaultPlan`."""
        return replace(self, grid=replace(self.grid, faults=plan))


def is_paper_scale() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "").strip() not in ("", "0")


def scale_factor() -> float:
    """Population scale relative to the paper's 10^4 peers."""
    return 1.0 if is_paper_scale() else 0.1


def default_scale(
    rate_per_min: float,
    horizon: float,
    churn_per_min: float = 0.0,
    seed: int = 0,
) -> ExperimentConfig:
    """A §4.1-proportional configuration at the active scale.

    ``rate_per_min`` and ``churn_per_min`` are given in *paper units*
    (requests / peers per minute at N = 10^4) and scaled down with the
    population, keeping per-peer load and per-capita churn identical.
    """
    s = scale_factor()
    n_peers = int(round(10_000 * s))
    # Keep the paper's overhead fraction M/N = 1%.
    budget = max(10, int(round(0.01 * n_peers)))
    grid = GridConfig(
        n_peers=n_peers,
        probing=ProbingConfig(budget=budget),
        churn=(
            ChurnConfig(rate_per_min=churn_per_min * s)
            if churn_per_min > 0
            else None
        ),
        seed=seed,
    )
    workload = WorkloadConfig(
        rate_per_min=max(rate_per_min * s, 1e-9),
        horizon=horizon,
    )
    return ExperimentConfig(grid=grid, workload=workload)


def paper_scale(
    rate_per_min: float,
    horizon: float,
    churn_per_min: float = 0.0,
    seed: int = 0,
) -> ExperimentConfig:
    """The paper's literal setup (10^4 peers, M = 100)."""
    grid = GridConfig(
        n_peers=10_000,
        probing=ProbingConfig(budget=100),
        churn=(
            ChurnConfig(rate_per_min=churn_per_min) if churn_per_min > 0 else None
        ),
        seed=seed,
    )
    workload = WorkloadConfig(rate_per_min=rate_per_min, horizon=horizon)
    return ExperimentConfig(grid=grid, workload=workload)


def _smoke(seed: int) -> ExperimentConfig:
    # Deliberately tiny (a few hundred peers, short horizon, short
    # sessions): the grid the repo benchmark's smoke tests serve.
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=250, probing=ProbingConfig(budget=10), seed=seed
        ),
        workload=WorkloadConfig(
            rate_per_min=30.0, horizon=10.0, duration_range=(1.0, 8.0)
        ),
        drain_minutes=10.0,
    )


def _compose_stress(seed: int) -> ExperimentConfig:
    # Composition-bound: 3-5x the default candidate instances per
    # abstract service makes the QCS kernel (graph build + relaxation)
    # dominate each request, the way `heavy` isolates admission
    # contention.
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=1000,
            probing=ProbingConfig(budget=10),
            catalog=CatalogConfig(instances_per_service=(50, 60)),
            seed=seed,
        ),
        workload=WorkloadConfig(
            rate_per_min=120.0, horizon=15.0, duration_range=(1.0, 8.0)
        ),
        drain_minutes=10.0,
    )


#: The named grid + workload shapes, ``name -> (seed -> config)``:
#: ``repro serve --scenario NAME`` keeps that grid resident, ``repro
#: info`` / ``GET /status`` advertise the names, and
#: ``tests/test_psi_goldens.py`` pins each one's seeded ψ exactly.
#: Rates are paper units (see :func:`default_scale`).
SCENARIOS: Dict[str, Callable[[int], ExperimentConfig]] = {
    "smoke": _smoke,
    # Steady §4.1 load, no churn.
    "baseline": lambda seed: default_scale(100.0, 20.0, 0.0, seed),
    "churn": lambda seed: default_scale(100.0, 20.0, 50.0, seed),
    # 4x request rate, the contention regime of Fig. 5's right edge.
    "heavy": lambda seed: default_scale(400.0, 20.0, 0.0, seed),
    "compose-stress": _compose_stress,
}

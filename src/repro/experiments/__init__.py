"""Experiment harness: §4.1 methodology and Fig. 5-8.

* :mod:`~repro.experiments.metrics` -- the success-ratio metric ψ and
  per-request outcome tracking.
* :mod:`~repro.experiments.runner` -- one simulation run: grid +
  workload + algorithm -> :class:`ExperimentResult`.
* :mod:`~repro.experiments.sweep` -- points × variants × seeds through
  the runner into one table; figures and ablations are sweep specs.
* :mod:`~repro.experiments.figures` -- the four result figures.
* :mod:`~repro.experiments.reporting` -- plain-text tables/series.

The ablation, sensitivity, load-balance and latency drivers live beside
their benches in ``benchmarks/``.
"""

from repro.experiments.config import ExperimentConfig, paper_scale, default_scale
from repro.experiments.metrics import MetricsCollector, RequestRecord
from repro.experiments.runner import ExperimentResult, run_experiment

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "MetricsCollector",
    "RequestRecord",
    "default_scale",
    "paper_scale",
    "run_experiment",
]

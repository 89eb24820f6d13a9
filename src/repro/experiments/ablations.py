"""Design-choice ablations for the QSA model (DESIGN.md A1-A3).

The paper motivates three design decisions that these ablations isolate:

* **A1 -- the uptime term** (§3.3, footnote 4; explains Fig. 7/8): run the
  churn experiment with the uptime filter on vs. off.
* **A2 -- the probe budget M** (§2.2): sweep M and watch selection decay
  towards the random policy as local knowledge vanishes.
* **A3 -- tier contributions** (§2.3): QSA composition with random peer
  selection, random composition with QSA peer selection, and the full
  model, to show both tiers matter.

A3's hybrids are built by composing the strategy hooks of the QSA and
random aggregators.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.core.aggregation import QSAAggregator
from repro.core.baselines import RandomAggregator, random_consistent_path
from repro.core.composition import ComposedPath, ConsistencyGraph
from repro.core.composition_vec import compose_qcs
from repro.experiments.config import ExperimentConfig, default_scale
from repro.experiments.metrics import MetricsCollector
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.grid import P2PGrid
from repro.workload.generator import RequestGenerator

__all__ = [
    "ablation_uptime",
    "ablation_probe_budget",
    "ablation_tiers",
    "HybridCompositionOnly",
    "HybridSelectionOnly",
]


# ---------------------------------------------------------------------------
# A1: uptime filter under churn
# ---------------------------------------------------------------------------

def ablation_uptime(
    churn_rates: Sequence[float] = (0, 50, 100, 200),
    rate: float = 100.0,
    horizon: float = 60.0,
    seed: int = 0,
) -> Dict[str, List[float]]:
    """ψ with/without the uptime term across churn rates."""
    out: Dict[str, List[float]] = {"uptime-aware": [], "uptime-blind": []}
    for churn in churn_rates:
        base = default_scale(
            rate_per_min=rate, horizon=horizon, churn_per_min=churn, seed=seed
        )
        on = run_experiment(base.with_algorithm("qsa", uptime_filter=True))
        off = run_experiment(base.with_algorithm("qsa", uptime_filter=False))
        out["uptime-aware"].append(on.success_ratio)
        out["uptime-blind"].append(off.success_ratio)
    return out


# ---------------------------------------------------------------------------
# A2: probe budget sweep
# ---------------------------------------------------------------------------

def ablation_probe_budget(
    budgets: Sequence[int] = (0, 5, 20, 100),
    rate: float = 200.0,
    horizon: float = 30.0,
    seed: int = 0,
) -> Dict[int, float]:
    """ψ as a function of the probing budget M (0 = always random)."""
    out: Dict[int, float] = {}
    for budget in budgets:
        base = default_scale(rate_per_min=rate, horizon=horizon, seed=seed)
        grid_cfg = replace(
            base.grid, probing=replace(base.grid.probing, budget=budget)
        )
        cfg = replace(base, grid=grid_cfg).with_algorithm("qsa")
        out[budget] = run_experiment(cfg).success_ratio
    return out


# ---------------------------------------------------------------------------
# A3: tier hybrids
# ---------------------------------------------------------------------------

class HybridCompositionOnly(RandomAggregator):
    """QCS composition (tier 1) + random peer selection (no tier 2)."""

    name = "qcs+random-peers"

    def compose(self, path, candidates, user_qos, request) -> ComposedPath:
        return compose_qcs(path, candidates, user_qos, self.weights)


class HybridSelectionOnly(QSAAggregator):
    """Random consistent composition (no tier 1) + Φ peer selection."""

    name = "random-path+phi-peers"

    def compose(self, path, candidates, user_qos, request) -> ComposedPath:
        graph = ConsistencyGraph(
            path, candidates, user_qos, self.composition_weights
        )
        return random_consistent_path(graph, self.rng)


def _run_custom(config: ExperimentConfig, make_aggregator) -> ExperimentResult:
    """run_experiment with a custom aggregator factory (grid -> aggregator)."""
    import time

    t0 = time.perf_counter()  # lint: disable=DET001 -- wall_seconds is display-only
    grid = P2PGrid(config.grid)
    aggregator = make_aggregator(grid)
    aggregator.bus = grid.telemetry.bus
    metrics = MetricsCollector()
    metrics.attach(grid.telemetry.bus)

    def sink(request):
        aggregator.aggregate(request)

    generator = RequestGenerator(
        grid.sim,
        config.workload,
        grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=sink,
        rng=grid.rngs.stream("workload"),
    )
    generator.start()
    grid.sim.run(until=config.workload.horizon + config.drain_minutes)
    if grid.churn is not None:
        grid.churn.stop()
    grid.sim.run()
    return ExperimentResult(
        config=config,
        algorithm=getattr(aggregator, "name", "custom"),
        metrics=metrics,
        n_requests=metrics.n_requests,
        success_ratio=metrics.success_ratio(),
        mean_lookup_hops=metrics.mean_lookup_hops(),
        probe_overhead=grid.probing.overhead_ratio(),
        n_arrivals=grid.churn.n_arrivals if grid.churn else 0,
        n_departures=grid.churn.n_departures if grid.churn else 0,
        wall_seconds=time.perf_counter() - t0,  # lint: disable=DET001 -- display-only
    )


def ablation_tiers(
    rate: float = 400.0,
    horizon: float = 30.0,
    seed: int = 0,
) -> Dict[str, float]:
    """ψ of the full model vs. each tier alone vs. neither."""
    base = default_scale(rate_per_min=rate, horizon=horizon, seed=seed)

    def composition_only(grid: P2PGrid):
        return HybridCompositionOnly(
            grid.compiler, grid.registry, grid.directory, grid.ledger,
            grid.composition_weights, grid.rngs.stream("aggregator-hybrid-c"),
        )

    def selection_only(grid: P2PGrid):
        return HybridSelectionOnly(
            grid.compiler, grid.registry, grid.directory, grid.ledger,
            grid.probing, grid.composition_weights, grid.phi_weights,
            grid.rngs.stream("aggregator-hybrid-s"),
        )

    out = {
        "full-qsa": run_experiment(base.with_algorithm("qsa")).success_ratio,
        "qcs+random-peers": _run_custom(base, composition_only).success_ratio,
        "random-path+phi-peers": _run_custom(base, selection_only).success_ratio,
        "neither (random)": run_experiment(
            base.with_algorithm("random")
        ).success_ratio,
    }
    return out

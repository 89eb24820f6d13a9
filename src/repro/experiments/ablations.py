"""Design-choice ablations for the QSA model (DESIGN.md A1-A3).

The paper motivates three design decisions that these ablations isolate:

* **A1 -- the uptime term** (§3.3, footnote 4; explains Fig. 7/8): run the
  churn experiment with the uptime filter on vs. off.
* **A2 -- the probe budget M** (§2.2): sweep M and watch selection decay
  towards the random policy as local knowledge vanishes.
* **A3 -- tier contributions** (§2.3): QSA composition with random peer
  selection, random composition with QSA peer selection, and the full
  model, to show both tiers matter.

Each is a :func:`~repro.experiments.sweep.paired_sweep` spec.  A3's hybrids
compose the strategy hooks of the QSA and random aggregators, each
through the composer its aggregator holds, and reach the run loop as
``make_aggregator`` factories.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence

from repro.core.aggregation import QSAAggregator
from repro.core.baselines import RandomAggregator
from repro.core.composition import ComposedPath
from repro.experiments.config import default_scale
from repro.experiments.sweep import Variant, algorithm_variants, paired_sweep
from repro.grid import P2PGrid

__all__ = [
    "ablation_uptime",
    "ablation_probe_budget",
    "ablation_tiers",
    "HybridCompositionOnly",
    "HybridSelectionOnly",
    "TIER_VARIANTS",
    "composition_only",
    "selection_only",
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
    table = paired_sweep(
        [(churn, default_scale(rate_per_min=rate, horizon=horizon,
                               churn_per_min=churn))
         for churn in churn_rates],
        (
            Variant("uptime-aware", "qsa", {"uptime_filter": True}),
            Variant("uptime-blind", "qsa", {"uptime_filter": False}),
        ),
        (seed,),
    )
    return {v: table.psi(variant=v) for v in ("uptime-aware", "uptime-blind")}


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
    base = default_scale(rate_per_min=rate, horizon=horizon)
    table = paired_sweep(
        [(budget, replace(base, grid=replace(
            base.grid, probing=replace(base.grid.probing, budget=budget))))
         for budget in budgets],
        algorithm_variants("qsa"),
        (seed,),
    )
    return {row.label: row.psi for row in table.rows}


# ---------------------------------------------------------------------------
# A3: tier hybrids
# ---------------------------------------------------------------------------

class HybridCompositionOnly(RandomAggregator):
    """QCS composition (tier 1) + random peer selection (no tier 2)."""

    name = "qcs+random-peers"

    def compose(self, path, candidates, user_qos, request) -> ComposedPath:
        return self.composer.compose(path, candidates, user_qos)


class HybridSelectionOnly(QSAAggregator):
    """Random consistent composition (no tier 1) + Φ peer selection."""

    name = "random-path+phi-peers"

    def compose(self, path, candidates, user_qos, request) -> ComposedPath:
        return RandomAggregator.compose(
            self, path, candidates, user_qos, request
        )


def composition_only(grid: P2PGrid) -> HybridCompositionOnly:
    """A3's QCS-only hybrid on ``grid``, on its own RNG stream."""
    return HybridCompositionOnly(
        grid.compiler, grid.registry, grid.directory, grid.ledger,
        grid.composition_weights, grid.rngs.stream("aggregator-hybrid-c"),
    )


def selection_only(grid: P2PGrid) -> HybridSelectionOnly:
    """A3's Φ-only hybrid on ``grid``, on its own RNG stream."""
    return HybridSelectionOnly(
        grid.compiler, grid.registry, grid.directory, grid.ledger,
        grid.probing, grid.composition_weights, grid.phi_weights,
        grid.rngs.stream("aggregator-hybrid-s"),
    )


#: A3's 2x2: the full model, each tier alone, and neither.
TIER_VARIANTS = (
    Variant("full-qsa", "qsa"),
    Variant(HybridCompositionOnly.name, make_aggregator=composition_only),
    Variant(HybridSelectionOnly.name, make_aggregator=selection_only),
    Variant("neither (random)", "random"),
)


def ablation_tiers(
    rate: float = 400.0,
    horizon: float = 30.0,
    seed: int = 0,
) -> Dict[str, float]:
    """ψ of the full model vs. each tier alone vs. neither."""
    base = default_scale(rate_per_min=rate, horizon=horizon)
    table = paired_sweep([(rate, base)], TIER_VARIANTS, (seed,))
    return {row.variant: row.psi for row in table.rows}

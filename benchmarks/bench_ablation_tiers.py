"""Ablation A3: what each tier contributes (§2.3).

QSA is "two cooperating tiers".  This bench runs the 2x2: full QSA,
QCS composition with random peers, random composition with Φ peers, and
neither (the random baseline).  Both single-tier hybrids should land
between the full model and the baseline, showing that composition and
selection contribute independently.
"""

import pytest

from benchmarks.ablations import ablation_tiers
from repro.experiments.reporting import banner, format_sweep_table


@pytest.mark.benchmark(group="ablations")
def test_each_tier_contributes(benchmark):
    out = benchmark.pedantic(
        ablation_tiers,
        kwargs={"rate": 400.0, "horizon": 30.0, "seed": 0},
        rounds=1,
        iterations=1,
    )

    print()
    print(banner(
        "Ablation A3 -- tier contributions",
        "rate = 400 req/min (paper units), 30 min, no churn",
    ))
    print(format_sweep_table("variant", [0], {k: [v] for k, v in out.items()}))

    full = out["full-qsa"]
    comp_only = out["qcs+random-peers"]
    sel_only = out["random-path+phi-peers"]
    neither = out["neither (random)"]

    assert full >= comp_only - 0.02
    assert full >= sel_only - 0.02
    assert comp_only > neither - 0.02
    assert sel_only > neither - 0.02
    assert full > neither + 0.05

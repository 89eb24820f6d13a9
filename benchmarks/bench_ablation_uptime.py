"""Ablation A1: the uptime term under churn (§3.3, footnote 4).

The paper attributes QSA's churn tolerance (Fig. 7/8) to taking "the
peers' average uptimes into account" -- this bench removes exactly that
term and re-runs the churn sweep.  Uptime-aware selection should retain
more ψ at high churn; without churn the two variants should be close.
"""

import pytest

from benchmarks.ablations import ablation_uptime
from repro.experiments.reporting import banner, format_sweep_table

CHURN_RATES = (0, 50, 100, 200)


@pytest.mark.benchmark(group="ablations")
def test_uptime_term_drives_churn_tolerance(benchmark):
    out = benchmark.pedantic(
        ablation_uptime,
        kwargs={"churn_rates": CHURN_RATES, "rate": 100.0, "horizon": 60.0,
                "seed": 0},
        rounds=1,
        iterations=1,
    )

    print()
    print(banner(
        "Ablation A1 -- uptime term in peer selection",
        "QSA with vs without the uptime filter, churn sweep (paper units)",
    ))
    print(format_sweep_table("churn (peers/min)", CHURN_RATES, out))

    aware = out["uptime-aware"]
    blind = out["uptime-blind"]
    # Without churn the term is nearly free.
    assert abs(aware[0] - blind[0]) < 0.1
    # Under churn the uptime term pays (sum over the churned points).
    assert sum(aware[1:]) > sum(blind[1:])

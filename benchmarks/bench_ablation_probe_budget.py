"""Ablation A2: the probing budget M (§2.2).

``M`` bounds how many peers any peer may probe.  ``M = 0`` removes all
performance information (every selection falls back to the random
policy, though QCS composition still helps); the paper's operating point
(1% of the population) restores nearly all of the benefit.

A subtlety this ablation surfaces: a *tiny* non-zero budget can be worse
than none at all -- every requester keeps the same few candidates in its
table, herding load onto them, while M = 0 at least spreads selections
uniformly.
"""

import pytest

from benchmarks.ablations import ablation_probe_budget
from repro.experiments.reporting import banner, format_sweep_table

BUDGETS = (0, 5, 20, 100)


@pytest.mark.benchmark(group="ablations")
def test_probe_budget_sweep(benchmark):
    out = benchmark.pedantic(
        ablation_probe_budget,
        kwargs={"budgets": BUDGETS, "rate": 400.0, "horizon": 30.0, "seed": 0},
        rounds=1,
        iterations=1,
    )

    print()
    print(banner(
        "Ablation A2 -- probing budget M",
        "QSA ψ vs neighbor budget; rate = 400 req/min (paper units), 30 min",
    ))
    print(format_sweep_table(
        "M (budget)", list(out), {"psi": list(out.values())}
    ))

    # The paper's operating point clearly beats no information at all.
    assert out[BUDGETS[-1]] > out[0]
    # And beats the starved budget too.
    assert out[BUDGETS[-1]] > out[BUDGETS[1]]

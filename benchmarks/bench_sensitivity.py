"""Sensitivity S1: the headline result is robust to the loose knobs.

§4.1 fixes most parameters but leaves several modelling knobs loose
(replica density, instance diversity, probe staleness, catalog quality
mix).  A reproduction whose "QSA wins" depends delicately on any of them
would be fragile; this bench perturbs each knob around the operating
point and checks that QSA's lead over random survives everywhere.
"""

import pytest

from benchmarks.sensitivity import sweep
from repro.experiments.reporting import banner, format_sweep_table

SWEEPS = {
    "replicas": (30.0, 60.0, 90.0),
    "instances": (8.0, 15.0, 25.0),
    "probe_period": (0.5, 1.0, 4.0),
    "quality_high_share": (0.2, 0.5, 0.8),
}


@pytest.mark.benchmark(group="sensitivity")
def test_qsa_lead_robust_to_loose_knobs(benchmark):
    def run():
        return {
            knob: sweep(knob, values, rate=200.0, horizon=15.0, seed=0)
            for knob, values in SWEEPS.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(banner(
        "Sensitivity S1 -- QSA's lead across loose modelling knobs",
        "rate = 200 req/min (paper units), 15 min; gap = ψ(QSA) − ψ(random)",
    ))
    for knob, rows in results.items():
        print(f"\n{knob}:")
        print(format_sweep_table(
            knob,
            [r.value for r in rows],
            {
                "qsa": [r.qsa for r in rows],
                "random": [r.random for r in rows],
                "gap": [r.gap for r in rows],
            },
        ))

    for knob, rows in results.items():
        for row in rows:
            assert row.gap > 0.0, (
                f"QSA lost its lead at {knob}={row.value}: "
                f"qsa={row.qsa:.3f} random={row.random:.3f}"
            )

"""Robustness R1: results do not depend on the discovery substrate.

§3.2 treats the lookup protocol as pluggable ("Chord [20] or CAN [16]");
if the reproduction were sensitive to which DHT serves discovery, that
assumption would be violated.  The bench runs the same QSA workload on
both substrates and checks that ψ matches closely while the per-request
lookup cost differs exactly as the two protocols' routing predicts.  The
grid runs on Chord; the CAN run swaps the test-side CAN of
``tests/lookup/can.py`` in for ``repro.grid.ChordRing`` with monkeypatch,
so run from the repo root with ``python -m pytest``.
"""

import pytest

import repro.grid
from repro.experiments.config import default_scale
from repro.experiments.reporting import banner, format_sweep_table
from repro.experiments.runner import run_experiment
from tests.lookup.can import can_ring


@pytest.mark.benchmark(group="claims")
def test_psi_is_substrate_independent(benchmark, monkeypatch):
    cfg = default_scale(
        rate_per_min=200.0, horizon=20.0, seed=0
    ).with_algorithm("qsa")

    def run():
        out = {"chord": run_experiment(cfg)}
        monkeypatch.setattr(repro.grid, "ChordRing", can_ring)
        out["can"] = run_experiment(cfg)
        return out

    out = benchmark.pedantic(
        run,
        rounds=1,
        iterations=1,
    )

    print()
    print(banner(
        "Robustness R1 -- discovery substrate independence",
        "QSA at 200 req/min (paper units), 20 min, Chord vs CAN",
    ))
    print(format_sweep_table(
        "metric", [0],
        {
            "chord psi": [out["chord"].success_ratio],
            "can psi": [out["can"].success_ratio],
            "chord hops": [out["chord"].mean_lookup_hops],
            "can hops": [out["can"].mean_lookup_hops],
        },
        value_format="{:10.3f}",
    ))

    # ψ must agree closely: discovery returns identical records either way.
    assert abs(
        out["chord"].success_ratio - out["can"].success_ratio
    ) < 0.05
    # Both substrates actually route (nonzero per-request lookup cost),
    # and the CAN run really ran on CAN (its routes differ from Chord's).
    assert out["chord"].mean_lookup_hops > 0
    assert out["can"].mean_lookup_hops > 0
    assert out["can"].mean_lookup_hops != out["chord"].mean_lookup_hops

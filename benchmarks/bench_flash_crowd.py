"""Extension E3: absorbing a flash crowd.

The paper's evaluation drives stationary load; real P2P media systems
live and die by bursts (everyone opens the same stream at once).  This
bench points a 10x flash crowd at one application and measures who
absorbs it: QSA's load-aware composition+selection should degrade
gracefully where the blind policies collapse on the hot application's
replica set.
"""

import numpy as np
import pytest

from benchmarks.scenarios import FlashCrowd, VariableRateGenerator
from repro.experiments.config import default_scale
from repro.experiments.metrics import MetricsCollector
from repro.experiments.reporting import banner, format_sweep_table
from repro.grid import P2PGrid

HOT_APP = "video-on-demand"
HORIZON = 30.0
BURST = (10.0, 10.0)  # start, duration (minutes)


def run(algorithm: str, seed: int = 0):
    cfg = default_scale(rate_per_min=100.0, horizon=HORIZON, seed=seed)
    grid = P2PGrid(cfg.grid)
    aggregator = grid.make_aggregator(algorithm)
    metrics = MetricsCollector()
    metrics.attach(grid.telemetry.bus)
    profile = FlashCrowd(
        base_rate=cfg.workload.rate_per_min,
        start=BURST[0],
        duration=BURST[1],
        peak=10.0,
        hot_application=HOT_APP,
    )
    generator = VariableRateGenerator(
        grid.sim, profile, HORIZON,
        grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=aggregator.aggregate,
        rng=grid.rngs.stream("workload"),
        duration_range=(1.0, 15.0),
    )
    generator.start()
    grid.sim.run(until=HORIZON + 61.0)
    grid.sim.run()

    # ψ of hot-application requests that arrived during the burst.
    burst_hot = [
        r for r in metrics.records.values()
        if r.application == HOT_APP
        and BURST[0] <= r.arrival_time < BURST[0] + BURST[1]
        and r.success is not None
    ]
    psi_burst = (
        sum(r.success for r in burst_hot) / len(burst_hot)
        if burst_hot else float("nan")
    )
    return metrics.success_ratio(), psi_burst, len(burst_hot)


@pytest.mark.benchmark(group="extensions")
def test_flash_crowd_absorption(benchmark):
    out = benchmark.pedantic(
        lambda: {a: run(a) for a in ("qsa", "random", "fixed")},
        rounds=1,
        iterations=1,
    )

    print()
    print(banner(
        "Extension E3 -- flash crowd absorption",
        f"10x burst on {HOT_APP!r} for {BURST[1]:g} min; "
        "ψ(burst) = hot-app success during the burst",
    ))
    print(format_sweep_table(
        "metric", [0],
        {
            "qsa ψ(all)": [out["qsa"][0]],
            "rnd ψ(all)": [out["random"][0]],
            "fix ψ(all)": [out["fixed"][0]],
            "qsa ψ(burst)": [out["qsa"][1]],
            "rnd ψ(burst)": [out["random"][1]],
            "fix ψ(burst)": [out["fixed"][1]],
        },
        value_format="{:10.3f}",
    ))
    print(f"(burst hot-app requests per run: ~{out['qsa'][2]})")

    # QSA absorbs the burst best, overall and inside the burst window.
    assert out["qsa"][0] > out["random"][0] > out["fixed"][0]
    assert out["qsa"][1] > out["random"][1]
    assert out["qsa"][1] > out["fixed"][1]

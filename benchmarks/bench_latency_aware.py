"""Extension E2: latency-aware peer selection.

The probing layer maintains per-pair latency (the paper lists "network
bandwidth and delay" among the performance information, §1/§3.3) but
Eq. 4's Φ only weighs resources and bandwidth.  This bench evaluates the
natural extension -- a Φ latency term (`PhiWeights.latency_aware`) -- on
the metric it targets: the delivery path's end-to-end latency, while ψ
must not regress materially.
"""

import numpy as np
import pytest

from benchmarks.latency import mean_path_latency, setup_latency_ms
from repro.core.selection import PhiWeights
from repro.experiments.config import default_scale
from repro.experiments.metrics import MetricsCollector
from repro.experiments.reporting import banner, format_sweep_table
from repro.grid import P2PGrid
from repro.workload.generator import RequestGenerator


def run_variant(phi_weights=None, rate=200.0, horizon=20.0, seed=0):
    cfg = default_scale(rate_per_min=rate, horizon=horizon, seed=seed)
    grid = P2PGrid(cfg.grid)
    options = {}
    if phi_weights is not None:
        options["phi_weights"] = phi_weights
    aggregator = grid.make_aggregator("qsa", **options)
    metrics = MetricsCollector()
    metrics.attach(grid.telemetry.bus)
    results = []

    def sink(request):
        results.append(aggregator.aggregate(request))

    generator = RequestGenerator(
        grid.sim, cfg.workload, grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=sink,
        rng=grid.rngs.stream("workload"),
    )
    generator.start()
    grid.sim.run(until=horizon + 61.0)
    grid.sim.run()
    path_ms = mean_path_latency(results, grid.network)
    setup_ms = float(np.mean([
        setup_latency_ms(r, grid.network) for r in results
    ]))
    return metrics.success_ratio(), path_ms, setup_ms


@pytest.mark.benchmark(group="extensions")
def test_latency_term_reduces_path_latency(benchmark):
    def run():
        names = ("cpu", "memory")
        return {
            "paper Φ": run_variant(None),
            "latency-aware Φ": run_variant(
                PhiWeights.latency_aware(names, latency_weight=0.3)
            ),
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(banner(
        "Extension E2 -- latency-aware peer selection",
        "Φ with a delay term vs the paper's Eq. 4; 200 req/min, 20 min",
    ))
    print(format_sweep_table(
        "metric", [0],
        {
            "psi (paper)": [out["paper Φ"][0]],
            "psi (lat)": [out["latency-aware Φ"][0]],
            "path ms (paper)": [out["paper Φ"][1]],
            "path ms (lat)": [out["latency-aware Φ"][1]],
            "setup ms (paper)": [out["paper Φ"][2]],
            "setup ms (lat)": [out["latency-aware Φ"][2]],
        },
        value_format="{:10.2f}",
    ))

    psi_paper, path_paper, _ = out["paper Φ"]
    psi_lat, path_lat, _ = out["latency-aware Φ"]
    # The delay term buys a clearly lower delivery-path latency...
    assert path_lat < path_paper * 0.8
    # ...without materially hurting admission success.
    assert psi_lat > psi_paper - 0.05

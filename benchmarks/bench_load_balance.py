"""Claim C5: QSA achieves load balance in heterogeneous grids (§1, §3).

"(4) Load balance.  Although each peer makes its own decisions based on
only local information, the solution should achieve the desired global
properties such as load balance" -- and §4.2 credits QSA's win to
"always selecting the peers which have the most abundant resources".

What Φ's availability-seeking rule targets is *water-filling*: the peer
with the most free resources absorbs the next instance, which evens out
absolute headroom across the heterogeneous population.  Operationally
the imbalance of blind placement shows up as admission failures -- the
random policy keeps landing instances on peers that cannot fit them.
The bench therefore reports three views of the same workload under QSA
and random placement:

* Jain fairness of remaining *headroom* (water-filling evenness),
* the count of resource-denied requests (the operational symptom), and
* ψ.
"""

import pytest

from benchmarks.loadbalance import UtilizationSampler
from repro.experiments.config import default_scale
from repro.experiments.metrics import MetricsCollector
from repro.experiments.reporting import banner, format_sweep_table
from repro.grid import P2PGrid
from repro.workload.generator import RequestGenerator


def run_with_sampler(algorithm: str, rate: float = 400.0,
                     horizon: float = 30.0, seed: int = 0):
    cfg = default_scale(rate_per_min=rate, horizon=horizon, seed=seed)
    grid = P2PGrid(cfg.grid)
    aggregator = grid.make_aggregator(algorithm)
    metrics = MetricsCollector()
    metrics.attach(grid.telemetry.bus)
    generator = RequestGenerator(
        grid.sim, cfg.workload, grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=aggregator.aggregate,
        rng=grid.rngs.stream("workload"),
    )
    generator.start()
    sampler = UtilizationSampler(grid.sim, grid.directory, period=2.0,
                                 horizon=horizon)
    sampler.start()
    grid.sim.run(until=horizon + 61.0)
    grid.sim.run()
    denied = metrics.breakdown().get("resources-denied", 0)
    return sampler.report(), metrics.success_ratio(), denied


@pytest.mark.benchmark(group="claims")
def test_qsa_load_balance_vs_random(benchmark):
    def run():
        return {
            "qsa": run_with_sampler("qsa"),
            "random": run_with_sampler("random"),
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    qsa_rep, qsa_psi, qsa_denied = out["qsa"]
    rnd_rep, rnd_psi, rnd_denied = out["random"]

    print()
    print(banner(
        "Claim C5 -- load balance in heterogeneous environments",
        "same workload, 400 req/min (paper units), 30 min",
    ))
    print(format_sweep_table(
        "metric", [0],
        {
            "qsa headroom-jain": [qsa_rep.mean_jain_headroom],
            "rnd headroom-jain": [rnd_rep.mean_jain_headroom],
            "qsa denied": [float(qsa_denied)],
            "rnd denied": [float(rnd_denied)],
            "qsa psi": [qsa_psi],
            "rnd psi": [rnd_psi],
        },
        value_format="{:8.3f}",
    ))

    # Water-filling keeps headroom at least as even as blind placement.
    assert qsa_rep.mean_jain_headroom >= rnd_rep.mean_jain_headroom - 0.02
    # The operational symptom: far fewer resource-denied admissions.
    assert qsa_denied < rnd_denied * 0.5
    # And the paper's bottom line.
    assert qsa_psi > rnd_psi

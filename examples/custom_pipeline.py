#!/usr/bin/env python
"""Bring your own application: a custom processing pipeline on the grid.

The workload machinery is not hard-wired to the paper's ten
applications: you define :class:`ApplicationTemplate`\\ s and the catalog
generator builds instances/replicas for them with the §4.1 statistics.
This example deploys a sensor-analytics pipeline and a two-stage backup
service, compares QSA against random placement across seeds (with
confidence intervals), and audits the grid's invariants afterwards.

Run:  python examples/custom_pipeline.py
"""

from repro import ApplicationTemplate, GridConfig, P2PGrid
from repro.core.explain import explain_result
from repro.diagnostics import check_grid_invariants
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import algorithm_variants, paired_sweep, t_interval
from repro.workload.generator import WorkloadConfig

CUSTOM_APPS = [
    ApplicationTemplate(
        "sensor-analytics",
        ("sensor-feed", "denoise", "feature-extract", "dashboard"),
        formats_per_interface=2,
    ),
    ApplicationTemplate(
        "offsite-backup",
        ("snapshot-store", "compressor"),
        formats_per_interface=2,
    ),
]


def main() -> None:
    # --- single request walk-through -------------------------------------
    grid = P2PGrid(GridConfig(n_peers=400, seed=5), applications=CUSTOM_APPS)
    print(f"grid hosts {grid.catalog.n_instances} instances of "
          f"{len(CUSTOM_APPS)} custom applications\n")

    qsa = grid.make_aggregator("qsa")
    request = grid.make_request("sensor-analytics", qos_level="average",
                                duration=10.0)
    result = qsa.aggregate(request)
    print(explain_result(result))

    problems = check_grid_invariants(grid)
    print(f"\ninvariant audit: "
          f"{'clean' if not problems else problems}")

    # --- replicated comparison across seeds -------------------------------
    print("\nQSA vs random on the custom workload (5 seeds):")
    base = ExperimentConfig(
        grid=GridConfig(n_peers=400, applications=tuple(CUSTOM_APPS)),
        workload=WorkloadConfig(rate_per_min=12.0, horizon=20.0,
                                duration_range=(1.0, 15.0)),
    )
    seeds = range(5)
    table = paired_sweep(
        [("custom", base)], algorithm_variants("qsa", "random"), seeds
    )
    for algorithm in table.variants:
        mean, hw = t_interval(table.psi(variant=algorithm))
        print(f"{algorithm}: ψ = {mean:.3f} ± {hw:.3f} (n={len(seeds)})")
    gap, gap_hw = t_interval(table.paired_differences("qsa", "random"))
    print(f"paired gap (qsa - random): {gap:+.3f} ± {gap_hw:.3f}; "
          f"qsa wins {table.wins('qsa', 'random')}/{len(seeds)} seeds")

if __name__ == "__main__":
    main()

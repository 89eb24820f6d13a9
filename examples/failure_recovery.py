#!/usr/bin/env python
"""Runtime failure recovery: repairing sessions that lose a peer.

The paper closes its evaluation with "we do need runtime failure
detection and recovery to improve the performance" under churn.  This
example runs that future work (implemented in
``repro.sessions.recovery``): a grid under churn with telemetry enabled,
so the event bus shows departures killing sessions in the baseline and
getting repaired in the extension, followed by the ψ comparison.

Run:  python examples/failure_recovery.py
"""

from repro import ChurnConfig, ExperimentConfig, GridConfig, WorkloadConfig
from repro.experiments.metrics import MetricsCollector
from repro.grid import P2PGrid
from repro.sessions.recovery import RecoveryConfig
from repro.workload.generator import RequestGenerator


def run(recovery, seed=31):
    config = GridConfig(
        n_peers=800,
        seed=seed,
        churn=ChurnConfig(rate_per_min=10.0),
        recovery=recovery,
        telemetry=True,
    )
    grid = P2PGrid(config)
    aggregator = grid.make_aggregator("qsa")
    metrics = MetricsCollector()
    metrics.attach(grid.telemetry.bus)
    generator = RequestGenerator(
        grid.sim,
        WorkloadConfig(rate_per_min=15.0, horizon=30.0),
        grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=aggregator.aggregate,
        rng=grid.rngs.stream("workload"),
    )
    generator.start()
    grid.sim.run(until=95.0)
    grid.churn.stop()
    grid.sim.run()
    return grid, metrics


def main() -> None:
    print("800 peers, 15 req/min for 30 min, churn 10 peers/min\n")

    print("--- baseline (paper model: departures kill sessions) ---")
    grid, metrics = run(recovery=None)
    failed = [
        e for e in grid.telemetry.bus.events("session.failed")
        if "departed" in e.reason
    ]
    print(f"ψ = {metrics.success_ratio():.3f}; "
          f"{len(failed)} sessions killed by departures")
    print("sample of the event log:")
    for event in failed[:4]:
        print(f"  {event}")

    print("\n--- with runtime failure recovery ---")
    grid, metrics = run(recovery=RecoveryConfig(detection_delay=0.5))
    repairs = grid.telemetry.bus.events("recovery.repaired")
    print(f"ψ = {metrics.success_ratio():.3f}; "
          f"{len(repairs)} sessions repaired in place "
          f"({grid.recovery.n_repair_failures} repairs failed)")
    for event in repairs[:4]:
        print(f"  {event}")

    print(
        "\nReading: the repair re-runs only the peer-selection tier for\n"
        "the slots the departed peer held (make-before-break), so most\n"
        "departure-doomed sessions finish after all."
    )


if __name__ == "__main__":
    main()

"""Run one experiment: grid + workload + algorithm -> result.

A run builds a fresh :class:`~repro.grid.P2PGrid` from the config,
instantiates the requested aggregation algorithm, streams the workload
through it and lets the simulation drain so every admitted session
resolves.  Because each subsystem draws from its own named RNG stream,
two runs that differ only in the algorithm see the *same* peers, catalog,
churn schedule and request sequence -- the comparisons in the figures are
paired, exactly like the paper's "implement two common heuristic
algorithms for comparison" methodology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional


from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import MetricsCollector
from repro.grid import P2PGrid
from repro.workload.generator import RequestGenerator

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """Everything a figure/bench needs from one run."""

    config: ExperimentConfig
    algorithm: str
    metrics: MetricsCollector
    n_requests: int
    success_ratio: float
    mean_lookup_hops: float
    probe_overhead: float
    n_arrivals: int
    n_departures: int
    wall_seconds: float
    #: Registry discoveries, each one routed DHT read.
    n_routed_discoveries: int = 0
    #: Sessions admitted at setup (ψ's numerator before churn failures).
    n_admitted: int = 0
    #: Set when the config asked for a telemetry export.
    n_telemetry_events: int = 0
    telemetry_summary: Optional[str] = None
    #: Set when the config asked for a sanitizer ledger export.
    n_sanitize_records: int = 0
    #: Fault-injection tallies (zero / None without an active plan).
    n_faults_injected: int = 0
    n_retries: int = 0
    n_retries_exhausted: int = 0
    fault_summary: Optional[str] = None

    def series(self, bin_minutes: float = 2.0):
        return self.metrics.time_series(
            bin_minutes, horizon=self.config.workload.horizon
        )

    def summary(self) -> str:
        b = self.metrics.breakdown()
        parts = ", ".join(f"{k}={v}" for k, v in sorted(b.items()))
        return (
            f"{self.algorithm}: ψ={self.success_ratio:.3f} "
            f"over {self.n_requests} requests ({parts})"
        )


def run_experiment(
    config: ExperimentConfig, profiler=None, make_aggregator=None
) -> ExperimentResult:
    """Build the grid, stream the workload, drain, and collect ψ.

    ``profiler`` (a :class:`repro.telemetry.profiling.Profiler`) attaches
    to the grid's span tracer for wall-clock attribution; it forces
    telemetry spans on but observes only in-process, so the exported
    stream is unchanged by profiling.

    ``make_aggregator`` (``grid -> aggregator``: the A3 hybrids) stands in
    for ``config.algorithm``; a result takes its aggregator's ``name``.
    """
    t0 = time.perf_counter()
    grid_config = config.grid
    needs_telemetry = config.telemetry_export is not None or profiler is not None
    if needs_telemetry and not grid_config.telemetry:
        grid_config = replace(grid_config, telemetry=True)
    if config.sanitize_export is not None and not grid_config.sanitize:
        grid_config = replace(grid_config, sanitize=True)
    grid = P2PGrid(grid_config)
    if profiler is not None:
        profiler.attach(grid)
    if make_aggregator is None:
        aggregator = grid.make_aggregator(
            config.algorithm, **dict(config.algorithm_options)
        )
    else:
        aggregator = grid.attach_aggregator(make_aggregator(grid))
    # The collector rides the telemetry bus: the aggregator publishes
    # request.setup, the grid publishes session.resolved, and the bus
    # dispatches both even with full telemetry recording off.
    metrics = MetricsCollector()
    metrics.attach(grid.telemetry.bus)

    def sink(request):
        aggregator.aggregate(request)

    generator = RequestGenerator(
        grid.sim,
        config.workload,
        grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=sink,
        rng=grid.rngs.stream("workload"),
    )
    generator.start()
    grid.sim.run(until=config.workload.horizon + config.drain_minutes)
    # Stop churn (if any) and drain the remaining session completions.
    if grid.churn is not None:
        grid.churn.stop()
    grid.sim.run()

    n_events = 0
    telemetry_summary = None
    if config.telemetry_export is not None:
        n_events = grid.telemetry.export_jsonl(config.telemetry_export)
        telemetry_summary = grid.telemetry.summary()

    n_sanitize = 0
    if config.sanitize_export is not None and grid.sanitizer is not None:
        n_sanitize = grid.sanitizer.export_jsonl(config.sanitize_export)

    injector = grid.injector
    return ExperimentResult(
        config=config,
        algorithm=aggregator.name,
        metrics=metrics,
        n_requests=metrics.n_requests,
        success_ratio=metrics.success_ratio(),
        mean_lookup_hops=metrics.mean_lookup_hops(),
        probe_overhead=grid.probing.overhead_ratio(),
        n_arrivals=grid.churn.n_arrivals if grid.churn else 0,
        n_departures=grid.churn.n_departures if grid.churn else 0,
        wall_seconds=time.perf_counter() - t0,
        n_routed_discoveries=grid.registry.n_routed_discoveries,
        n_admitted=metrics.n_admitted,
        n_telemetry_events=n_events,
        telemetry_summary=telemetry_summary,
        n_sanitize_records=n_sanitize,
        n_faults_injected=injector.n_injected if injector else 0,
        n_retries=injector.n_retries if injector else 0,
        n_retries_exhausted=injector.n_exhausted if injector else 0,
        fault_summary=injector.summary() if injector else None,
    )

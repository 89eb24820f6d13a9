"""The in-process workloads: build a grid, run the §4.1 loop, check, account.

End-to-end numbers come from untraced passes: the only bench code on the
request path is the ``perf_counter`` pair around ``aggregate()`` in the
sink.  Run time and latencies are host-speed normalised (:mod:`hostspeed`).
A traced pass installs the :mod:`layers` wrappers and additionally reports
the per-layer times (raw host seconds) and call counts.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from hostspeed import SlicedClock, factor_now  # noqa: E402
from layers import SpanRecorder, timed_build  # noqa: E402
from workloads import experiment_config  # noqa: E402

_TOL = 1e-6


def p50_us(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e6 if seconds else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- output checks ------------------------------------------------------------
def check_results(results: Sequence[Any]) -> List[str]:
    """Eq. 1 along every admitted path; one peer per instance."""
    from repro.core.qos import satisfies

    problems = []
    for result in results:
        if not result.admitted:
            continue
        rid = result.request.request_id
        instances = result.composed.instances
        if len(result.peers) != len(instances):
            problems.append(
                f"request {rid}: {len(result.peers)} peers for "
                f"{len(instances)} instances"
            )
        for upstream, downstream in zip(instances, instances[1:]):
            if not satisfies(upstream.qout, downstream.qin):
                problems.append(
                    f"request {rid}: {upstream.instance_id} -> "
                    f"{downstream.instance_id} violates Eq. 1"
                )
    return problems


def check_drained(grid: Any) -> List[str]:
    """After the drain: no session left, no reservation leaked."""
    problems = []
    if grid.ledger.n_active:
        problems.append(f"{grid.ledger.n_active} sessions still active after drain")
    leaked = 0
    for peer in grid.directory.alive_peers():
        if (
            abs(peer.available.values - peer.capacity.values).max() > _TOL
            or abs(peer.avail_up - peer.access_bw) > _TOL
            or abs(peer.avail_down - peer.access_bw) > _TOL
        ):
            leaked += 1
    if leaked:
        problems.append(f"{leaked} alive peers hold leaked reservations after drain")
    return problems


# -- per-layer accounting -------------------------------------------------------
def read_counters(grid: Any) -> Dict[str, float]:
    """Public counters of the live grid (deterministic per seed)."""
    churn = grid.churn
    return {
        "lookup.routed": grid.registry.n_routed_discoveries,
        "lookup.cached": grid.registry.n_cached_discoveries,
        "lookup.ring_lookups": getattr(grid.ring, "n_lookups", 0),
        "probing.probe_messages": grid.probing.probe_messages,
        "sessions.admitted": grid.ledger.n_admitted,
        "sessions.failed": grid.ledger.n_failed,
        "sessions.completed": grid.ledger.n_completed,
        "network.churn.arrivals": churn.n_arrivals if churn else 0,
        "network.churn.departures": churn.n_departures if churn else 0,
    }


def counted_layers(
    grid: Any, before: Dict[str, float], results: Sequence[Any]
) -> Dict[str, float]:
    """Layer metrics every pass can produce (counters + verdicts)."""
    from repro.core.aggregation import AggregationStatus as S

    out = {k: v - before[k] for k, v in read_counters(grid).items()}
    statuses = [r.status for r in results]
    out["lookup.hops"] = sum(r.lookup_hops for r in results)
    lookups = out["lookup.routed"] + out["lookup.cached"]
    out["lookup.cache_hit_ratio"] = out["lookup.cached"] / lookups if lookups else 0.0
    out["core.composition.failed"] = statuses.count(S.COMPOSITION_FAILED)
    out["core.selection.failed"] = statuses.count(S.SELECTION_FAILED)
    out["core.selection.random_fallbacks"] = sum(r.random_fallbacks for r in results)
    out["sessions.rejected"] = sum(
        statuses.count(s)
        for s in (S.RESOURCES_DENIED, S.BANDWIDTH_DENIED, S.TRANSIENT_DENIED)
    )
    out["probing.overhead_ratio"] = grid.probing.overhead_ratio()
    out["network.store.memory_mb"] = grid.directory.store.memory_bytes() / 2**20
    return out


def traced_layers(
    recorder: SpanRecorder, build: Dict[str, float], run_s: float
) -> Dict[str, float]:
    """Layer metrics only a traced pass can produce (times + call counts)."""
    self_s, calls = recorder.self_times(), recorder.calls()
    out: Dict[str, float] = dict(build)
    for name in (
        "services.compile", "services.catalog.membership", "lookup.candidates",
        "lookup.hosts", "lookup.membership", "core.composition",
        "core.selection.hop", "core.selection.walk", "probing.resolve",
        "probing.drop_peer", "sessions.admit", "sessions.fail_peer",
        "network.directory.membership", "core.aggregation",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "services.compile", "lookup.candidates", "lookup.hosts",
        "lookup.membership", "core.composition", "core.selection.hop",
        "probing.resolve", "sessions.admit",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["core.composition.us_per_call_p50"] = p50_us(
        recorder.durations("core.composition")
    )
    out["core.composition.candidates_per_layer_mean"] = (
        recorder.candidate_total / recorder.candidate_layers
        if recorder.candidate_layers else 0.0
    )
    out["sim.events"] = recorder.sim_events
    out["sim.self_s"] = run_s - recorder.covered()
    out["sim.host_us_per_event"] = (
        out["sim.self_s"] / recorder.sim_events * 1e6 if recorder.sim_events else 0.0
    )
    out["trace.spans"] = len(recorder.spans)
    return out


# -- the in-process workloads ---------------------------------------------------
def run_in_process(
    name: str, seed: int, smoke: bool, traced: bool,
    spawned_at: float, trace_path: Optional[str],
) -> Dict[str, Any]:
    from repro.experiments.metrics import MetricsCollector
    from repro.grid import P2PGrid
    from repro.workload.generator import RequestGenerator

    config = experiment_config(name, seed, smoke)
    recorder = SpanRecorder() if traced else None
    with timed_build() if traced else nullcontext({}) as build:
        grid = P2PGrid(config.grid)
        aggregator = grid.make_aggregator(config.algorithm)
    metrics = MetricsCollector()
    metrics.attach(grid.telemetry.bus)
    if recorder is not None:
        recorder.install(grid, aggregator)

    results: List[Any] = []
    latencies: List[Tuple[int, float]] = []
    failures: List[str] = []

    def sink(request: Any) -> None:
        t0 = perf_counter()
        try:
            result = aggregator.aggregate(request)
        except Exception as exc:  # noqa: BLE001 - count it, keep the run going
            failures.append(f"request {request.request_id}: {exc!r}")
            return
        latencies.append((clock.index, perf_counter() - t0))
        results.append(result)

    generator = RequestGenerator(
        grid.sim, config.workload, grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=sink, rng=grid.rngs.stream("workload"),
    )
    generator.start()
    gc.collect()
    gc.freeze()
    before = read_counters(grid)
    setup_s = (time.time() - spawned_at) * factor_now()

    # One slice per simulated minute of request generation, then the drain:
    # run_s spans both, so membership writes and session teardown count
    # against requests_per_s.  Slicing run(until=) changes no event order.
    clock = SlicedClock()
    horizon = config.workload.horizon
    for minute in range(1, math.ceil(horizon)):
        clock.run(lambda: grid.sim.run(until=float(minute)))

    def drain() -> None:
        grid.sim.run(until=horizon + config.drain_minutes)
        if grid.churn is not None:
            grid.churn.stop()
        grid.sim.run()

    clock.run(drain)

    problems = failures + check_results(results) + check_drained(grid)
    attempted = generator.n_generated
    if metrics.n_requests != len(results) or metrics.n_resolved != len(results):
        problems.append(
            f"{attempted} generated, {len(results)} verdicts, "
            f"{metrics.n_requests} recorded, {metrics.n_resolved} resolved"
        )
    layers = counted_layers(grid, before, results)
    if recorder is not None:
        layers.update(traced_layers(recorder, build, clock.raw_s))
        if trace_path:
            recorder.write_jsonl(trace_path)
    return {
        "setup_s": setup_s,
        "run_s": clock.normalised_s,
        "raw_run_s": clock.raw_s,
        "attempted": attempted,
        "failed": len(failures),
        "verdicts": len(results),
        "latencies_us": [s * 1e6 for s in clock.normalise(latencies)],
        "psi": metrics.success_ratio(),
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers,
        "problems": problems,
    }

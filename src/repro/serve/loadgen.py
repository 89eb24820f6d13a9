"""Load generation against a running serving plane.

``repro loadgen`` replays the paper's §4.1 workload over HTTP: each
generated request draws an application, a QoS level and a session
duration exactly the way :mod:`repro.workload` does (same
:class:`~repro.workload.generator.WorkloadConfig` knobs, same seeded
streams), but delivers it as ``POST /compose`` to a live server instead
of calling the aggregator in-process.

Two arrival disciplines:

``closed``
    ``concurrency`` workers each keep exactly one request in flight
    (classic closed loop) until ``n_requests`` have been sent.  Measures
    the server's sustained capacity.
``open``
    A Poisson dispatcher submits requests at ``rate_per_sec``
    regardless of completions (open loop, bounded by ``concurrency``
    in-flight).  Measures behavior under a fixed offered load.

A fraction ``release_ratio`` of admitted sessions is torn down
immediately via ``DELETE /sessions/{id}``, exercising the full
compose -> inspect -> release round trip the endpoint contract promises.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.services.applications import default_applications
from repro.sim.rng import RngStreams
from repro.workload.generator import WorkloadConfig

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "SoakConfig",
    "SoakReport",
    "run_loadgen",
    "run_soak",
]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run."""

    host: str = "127.0.0.1"
    port: int = 8177
    #: Total compose requests to send.
    n_requests: int = 200
    #: Workers (closed loop) / max in-flight (open loop).
    concurrency: int = 4
    #: ``"closed"`` or ``"open"``.
    mode: str = "closed"
    #: Offered load for the open loop, requests per wall-clock second.
    rate_per_sec: float = 50.0
    #: Seed for the request-parameter draws (application/QoS/duration).
    seed: int = 0
    #: Fraction of admitted sessions released immediately afterwards.
    release_ratio: float = 0.25
    #: §4.1 workload shape (duration range, QoS levels).  The default
    #: shortens sessions so a bench run does not saturate the grid.
    workload: WorkloadConfig = field(
        default_factory=lambda: WorkloadConfig(duration_range=(1.0, 15.0))
    )

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"unknown loadgen mode {self.mode!r} (closed/open)")
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be positive")
        if self.rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        if not 0.0 <= self.release_ratio <= 1.0:
            raise ValueError("release_ratio must be in [0, 1]")


@dataclass
class LoadgenReport:
    """What the run measured."""

    sent: int = 0
    admitted: int = 0
    rejected: int = 0
    released: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    #: Per-request HTTP round-trip times, microseconds (compose only).
    latencies_us: List[float] = field(default_factory=list)

    @property
    def requests_per_sec(self) -> float:
        return self.sent / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def psi(self) -> float:
        """Serving-side satisfaction ratio: admitted / sent."""
        return self.admitted / self.sent if self.sent else 0.0

    def latency_summary_us(self) -> Dict[str, float]:
        values = sorted(self.latencies_us)
        if not values:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}

        def pct(q: float) -> float:
            rank = min(len(values) - 1, max(0, round(q / 100 * (len(values) - 1))))
            return values[rank]

        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": pct(50), "p95": pct(95), "p99": pct(99),
            "max": values[-1],
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "released": self.released,
            "errors": self.errors,
            "psi": self.psi,
            "wall_seconds": self.wall_seconds,
            "requests_per_sec": self.requests_per_sec,
            "latency_us": self.latency_summary_us(),
        }


def _draw_requests(config: LoadgenConfig) -> List[Dict[str, Any]]:
    """All compose bodies up front, from one seeded stream.

    Drawing before dispatch keeps the request *contents* a pure function
    of the seed even when worker scheduling interleaves nondeterministically.
    """
    rng = RngStreams(config.seed).stream("loadgen")
    applications = [t.name for t in default_applications()]
    levels = list(config.workload.qos_levels)
    lo, hi = config.workload.duration_range
    bodies = []
    for _ in range(config.n_requests):
        bodies.append({
            "application": applications[int(rng.integers(len(applications)))],
            "qos_level": str(rng.choice(levels)),
            "duration": float(rng.uniform(lo, hi)),
            "release": bool(rng.random() < config.release_ratio),
        })
    return bodies


def _send_one(
    config: LoadgenConfig,
    body: Dict[str, Any],
    report: LoadgenReport,
    lock: threading.Lock,
    clients: threading.local,
) -> None:
    from repro.serve.client import ServeApiError, ServeClient

    client: Optional[ServeClient] = getattr(clients, "client", None)
    if client is None:
        client = clients.client = ServeClient(config.host, config.port)
    release = body["release"]
    try:
        # Wall-clock RTT measurement: this is the load generator's whole
        # purpose; it never feeds the seeded event stream.
        t0 = time.perf_counter()
        payload = client.compose(
            application=body["application"],
            qos_level=body["qos_level"],
            duration=body["duration"],
        )
        elapsed_us = (time.perf_counter() - t0) * 1e6
    except (ServeApiError, OSError, TimeoutError):
        with lock:
            report.sent += 1
            report.errors += 1
        return
    admitted = bool(payload.get("admitted"))
    session_id = payload.get("session_id")
    released = False
    if admitted and release and session_id is not None:
        try:
            client.release(int(session_id))
            released = True
        except (ServeApiError, OSError, TimeoutError):
            pass
    with lock:
        report.sent += 1
        report.latencies_us.append(elapsed_us)
        if admitted:
            report.admitted += 1
            if released:
                report.released += 1
        else:
            report.rejected += 1


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Drive one run against ``config.host:port``; returns the report."""
    from repro.serve.client import wait_ready

    wait_ready(config.host, config.port, timeout=30.0)
    bodies = _draw_requests(config)
    report = LoadgenReport()
    lock = threading.Lock()
    clients = threading.local()

    # The arrival process is wall-clock by definition (it offers load to
    # a real server); this module is on the wall-clock allowlist of
    # tests/analysis/test_invariants.py.
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        if config.mode == "closed":
            futures = [
                pool.submit(_send_one, config, body, report, lock, clients)
                for body in bodies
            ]
        else:
            rng = RngStreams(config.seed).stream("loadgen-arrivals")
            futures = []
            mean_gap = 1.0 / config.rate_per_sec
            for body in bodies:
                futures.append(
                    pool.submit(_send_one, config, body, report, lock, clients)
                )
                time.sleep(float(rng.exponential(mean_gap)))
        for future in futures:
            future.result()
    report.wall_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Soak mode (ROADMAP item 2): sustained load with drift detection.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoakConfig:
    """A wall-clock soak: sustained load for a fixed duration.

    The generator drives an open loop for ``duration_seconds`` while a
    sampler thread polls ``/status`` and ``/slo``; the report then
    splits the run into thirds and compares the first against the last
    to expose *monotonic drift* -- the failure mode a fixed-count bench
    cannot see (RSS creeping up, latency degrading as state accretes).
    """

    host: str = "127.0.0.1"
    port: int = 8177
    duration_seconds: float = 30.0
    rate_per_sec: float = 25.0
    concurrency: int = 4
    seed: int = 0
    release_ratio: float = 0.25
    #: Seconds between ``/status`` + ``/slo`` samples.
    sample_interval: float = 1.0
    workload: WorkloadConfig = field(
        default_factory=lambda: WorkloadConfig(duration_range=(1.0, 15.0))
    )

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be positive")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if not 0.0 <= self.release_ratio <= 1.0:
            raise ValueError("release_ratio must be in [0, 1]")


def _thirds(values: List[float]) -> Optional[tuple]:
    """``(mean of first third, mean of last third)`` (None if too few)."""
    if len(values) < 6:
        return None
    third = len(values) // 3
    first = values[:third]
    last = values[-third:]
    return (sum(first) / len(first), sum(last) / len(last))


@dataclass
class SoakReport:
    """What a soak run measured, drift verdicts included."""

    loadgen: LoadgenReport = field(default_factory=LoadgenReport)
    #: Periodic ``{wall_s, rss_kb, slo_state, active_sessions,
    #: events_retained, traces_retained}`` samples.
    samples: List[Dict[str, Any]] = field(default_factory=list)
    #: Every SLO worst-state observed, in sample order (deduplicated).
    slo_states: List[str] = field(default_factory=list)

    #: A run "drifts" when the last third exceeds the first third by
    #: more than these ratios (RSS and compose RTT respectively).
    RSS_DRIFT_LIMIT = 1.25
    LATENCY_DRIFT_LIMIT = 2.0

    def rss_drift(self) -> Optional[float]:
        """last-third mean RSS / first-third mean RSS (None = no data)."""
        values = [
            float(s["rss_kb"]) for s in self.samples
            if s.get("rss_kb") is not None
        ]
        pair = _thirds(values)
        if pair is None or pair[0] <= 0:
            return None
        return pair[1] / pair[0]

    def latency_drift(self) -> Optional[float]:
        """last-third mean compose RTT / first-third mean (None = no data)."""
        pair = _thirds(self.loadgen.latencies_us)
        if pair is None or pair[0] <= 0:
            return None
        return pair[1] / pair[0]

    def drift_ok(self) -> bool:
        rss = self.rss_drift()
        latency = self.latency_drift()
        return (rss is None or rss <= self.RSS_DRIFT_LIMIT) and (
            latency is None or latency <= self.LATENCY_DRIFT_LIMIT
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "loadgen": self.loadgen.as_dict(),
            "samples": self.samples,
            "slo_states": self.slo_states,
            "rss_drift": self.rss_drift(),
            "latency_drift": self.latency_drift(),
            "drift_ok": self.drift_ok(),
        }


def run_soak(config: SoakConfig) -> SoakReport:
    """Drive one soak against ``config.host:port``; returns the report.

    Wall-clock by definition -- it sustains real load against a real
    server for a real duration (the module is on the wall-clock
    allowlist of tests/analysis/test_invariants.py).
    """
    from repro.serve.client import ServeApiError, ServeClient, wait_ready

    wait_ready(config.host, config.port, timeout=30.0)
    report = SoakReport()
    lock = threading.Lock()
    clients = threading.local()
    rng = RngStreams(config.seed).stream("loadgen-arrivals")
    bodies = iter([])
    stop = threading.Event()
    start = time.perf_counter()

    def _sample_loop() -> None:
        client = ServeClient(config.host, config.port)
        try:
            while not stop.wait(config.sample_interval):
                now = time.perf_counter() - start
                try:
                    status = client.status()
                except (ServeApiError, OSError, TimeoutError):
                    continue
                sample: Dict[str, Any] = {
                    "wall_s": now,
                    "rss_kb": (status.get("process") or {}).get("rss_kb"),
                    "slo_state": status.get("slo_state"),
                    "active_sessions": status.get("sessions", {}).get("active"),
                }
                try:
                    metrics = client.metrics()
                    sample["events_retained"] = metrics.get("events_retained")
                    sample["traces_retained"] = metrics.get("traces_retained")
                except (ServeApiError, OSError, TimeoutError):
                    pass
                with lock:
                    report.samples.append(sample)
                    state = sample["slo_state"]
                    if state is not None and (
                        not report.slo_states or report.slo_states[-1] != state
                    ):
                        report.slo_states.append(state)
        finally:
            client.close()

    sampler = threading.Thread(
        target=_sample_loop, name="repro-soak-sampler", daemon=True
    )
    sampler.start()
    mean_gap = 1.0 / config.rate_per_sec
    batch_config = LoadgenConfig(
        host=config.host,
        port=config.port,
        n_requests=256,
        concurrency=config.concurrency,
        seed=config.seed,
        release_ratio=config.release_ratio,
        workload=config.workload,
    )
    n_batches = 0
    try:
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            futures = []
            while (time.perf_counter() - start) < config.duration_seconds:
                body = next(bodies, None)
                if body is None:
                    # Re-seed per batch so a long soak does not replay
                    # the same 256 request bodies forever.
                    from dataclasses import replace

                    batch = replace(
                        batch_config, seed=config.seed + n_batches
                    )
                    n_batches += 1
                    bodies = iter(_draw_requests(batch))
                    body = next(bodies)
                futures.append(
                    pool.submit(
                        _send_one, batch_config, body, report.loadgen,
                        lock, clients,
                    )
                )
                time.sleep(float(rng.exponential(mean_gap)))
            for future in futures:
                future.result()
    finally:
        stop.set()
        sampler.join(timeout=10)
    report.loadgen.wall_seconds = time.perf_counter() - start
    return report

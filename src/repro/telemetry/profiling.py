"""Wall-clock profiling: where a run spends *real* time.

The telemetry stream is deliberately wall-clock-free (seeded runs must
export byte-identical JSONL), so wall-time attribution lives here, fully
in-process:

* :class:`Profiler` rides :meth:`SpanTracer.add_wall_observer`: every
  span close hands it ``(span, wall_start, wall_end)``, from which it
  keeps (a) a wall-time mirror of the span forest and (b) a reservoir
  histogram of per-request setup latency (the wall duration of each
  ``request`` span) -- reusing the metrics registry's
  :class:`~repro.telemetry.metrics.Histogram`.
* :func:`profile_run` wraps one experiment with a profiler attached,
  optional :mod:`cProfile` integration (top-N cumulative report) and
  per-subsystem throughput counters (requests/sec, lookups/sec,
  probes/sec).

Because the profiler only *observes* span closes and never emits bus
events, draws RNG or advances the simulator, a profiled run's telemetry
export is byte-identical to an unprofiled one (tested in
``tests/telemetry/test_profiling.py``).
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.analysis import (
    SpanRecord,
    aggregate_spans,
    build_forest,
    format_span_table,
    phase_report,
)
from repro.telemetry.metrics import Histogram

__all__ = ["Profiler", "ProfileReport", "profile_run"]


class Profiler:
    """Collects wall-clock span records and setup-latency samples."""

    def __init__(self, request_span: str = "request") -> None:
        self.request_span = request_span
        self.wall_spans: List[SpanRecord] = []
        #: Per-request wall setup latency, microseconds (reservoir kept
        #: in arrival order like every registry histogram).
        self.setup_latency_us = Histogram("request.setup_wall_us")
        self._t0: Optional[float] = None
        self._detach = None
        self._grid = None

    # -- wiring ------------------------------------------------------------
    def attach(self, grid) -> None:
        """Observe ``grid``'s span tracer (telemetry must be enabled)."""
        if not grid.telemetry.enabled:
            raise ValueError(
                "profiling needs telemetry spans; build the grid with "
                "GridConfig(telemetry=True) (profile_run does this for you)"
            )
        self._grid = grid
        self._t0 = time.perf_counter()
        self._detach = grid.telemetry.tracer.add_wall_observer(self._on_close)

    def detach(self) -> None:
        if self._detach is not None:
            self._detach()
            self._detach = None

    def _on_close(self, span, wall_start: float, wall_end: float) -> None:
        if span.detached:
            # Detached spans (session lifetimes) measure *sim* intervals;
            # their wall extent is just how long the run took to reach the
            # close, which would swamp the hot-path attribution.
            return
        t0 = self._t0 or 0.0
        self.wall_spans.append(SpanRecord(
            name=span.name,
            span_id=span.span_id,
            parent_id=span.parent_id,
            start=wall_start - t0,
            end=wall_end - t0,
        ))
        if span.name == self.request_span:
            self.setup_latency_us.observe((wall_end - wall_start) * 1e6)

    # -- reporting ---------------------------------------------------------
    def report(
        self,
        wall_seconds: float,
        n_requests: int,
        cprofile_text: Optional[str] = None,
    ) -> "ProfileReport":
        grid = self._grid
        n_lookups = grid.ring.n_lookups if grid is not None else 0
        n_probes = grid.probing.probe_messages if grid is not None else 0
        wall = max(wall_seconds, 1e-9)
        return ProfileReport(
            wall_seconds=wall_seconds,
            n_requests=n_requests,
            throughput={
                "requests_per_sec": n_requests / wall,
                "lookups_per_sec": n_lookups / wall,
                "probes_per_sec": n_probes / wall,
            },
            setup_latency_us=self.setup_latency_us,
            wall_spans=list(self.wall_spans),
            cprofile_text=cprofile_text,
        )


@dataclass
class ProfileReport:
    """One profiled run: throughput, latency reservoir and wall spans."""

    wall_seconds: float
    n_requests: int
    throughput: Dict[str, float]
    setup_latency_us: Histogram
    wall_spans: List[SpanRecord] = field(default_factory=list)
    cprofile_text: Optional[str] = None

    def latency_percentiles(self) -> Dict[str, float]:
        h = self.setup_latency_us
        return {
            "count": float(h.count),
            "mean": h.mean,
            "p50": h.percentile(50),
            "p95": h.percentile(95),
            "p99": h.percentile(99),
            "max": h.max or 0.0,
        }

    def span_table(self) -> str:
        return format_span_table(
            aggregate_spans(build_forest(self.wall_spans)), unit="s"
        )

    def critical_path_report(self, root: Optional[str] = None) -> str:
        return phase_report(
            build_forest(self.wall_spans), root_name=root or "request"
        )

    def export_trace_jsonl(self, destination) -> int:
        """Write the wall-span records in the span-event JSONL shape.

        Each line carries ``"unit": "s"`` so ``repro trace`` commands
        recognise wall seconds.  This is a *profile artifact*, distinct
        from the deterministic telemetry export.
        """
        import json

        def write(fh) -> int:
            n = 0
            for i, r in enumerate(self.wall_spans):
                fh.write(json.dumps({
                    "t": r.end, "seq": i, "event": "span", "name": r.name,
                    "id": r.span_id, "parent": r.parent_id,
                    "start": r.start, "unit": "s",
                }, sort_keys=True))
                fh.write("\n")
                n += 1
            return n

        if hasattr(destination, "write"):
            return write(destination)
        with open(destination, "w", encoding="utf-8") as fh:
            return write(fh)

    def render(self, top_spans: int = 0) -> str:
        """The human-facing profile summary the CLI prints."""
        p = self.latency_percentiles()
        lines = [
            f"wall clock: {self.wall_seconds:.2f}s over "
            f"{self.n_requests} requests",
            "throughput",
        ]
        for name, value in self.throughput.items():
            lines.append(f"  {name:<18}  {value:>12.1f}")
        lines.append(
            "request setup latency (wall µs): "
            f"n={int(p['count'])} mean={p['mean']:.0f} p50={p['p50']:.0f} "
            f"p95={p['p95']:.0f} p99={p['p99']:.0f} max={p['max']:.0f}"
        )
        lines.append("")
        lines.append(self.critical_path_report())
        lines.append("")
        lines.append(self.span_table())
        if self.cprofile_text:
            lines.append("")
            lines.append(self.cprofile_text.rstrip())
        return "\n".join(lines)


def profile_run(
    config,
    cprofile: bool = False,
    top: int = 25,
    trace_out: Optional[str] = None,
):
    """Run one experiment under wall-clock profiling.

    Returns ``(result, report)``.  Telemetry spans are forced on for the
    run (the stream itself stays seeded-deterministic); ``cprofile=True``
    additionally wraps the run in :mod:`cProfile` and attaches a top-N
    cumulative-time table to the report.
    """
    from dataclasses import replace

    from repro.experiments.runner import run_experiment

    if not config.grid.telemetry:
        config = replace(config, grid=replace(config.grid, telemetry=True))
    profiler = Profiler()
    cprofile_text = None
    if cprofile:
        import cProfile
        import pstats

        prof = cProfile.Profile()
        result = prof.runcall(run_experiment, config, profiler=profiler)
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(top)
        cprofile_text = _trim_cprofile(buf.getvalue(), top)
    else:
        result = run_experiment(config, profiler=profiler)
    report = profiler.report(
        wall_seconds=result.wall_seconds,
        n_requests=result.n_requests,
        cprofile_text=cprofile_text,
    )
    if trace_out is not None:
        report.export_trace_jsonl(trace_out)
    return result, report


def _trim_cprofile(text: str, top: int) -> str:
    """Keep the header + top rows of pstats output (it pads heavily)."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    return "\n".join(lines[: top + 6])

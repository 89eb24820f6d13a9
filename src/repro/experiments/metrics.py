"""The paper's performance metric ψ and per-request outcome tracking.

§4.1: "The metric ψ is defined as the number of successful requests over
the total number of all requests", where a request is successful iff it
was admitted *and* every provisioning peer stayed for the whole session.

:class:`MetricsCollector` therefore resolves each request in two steps:
setup (a rejection resolves it immediately as failed) and session
outcome (completion -> success, departure -> failure).  Besides the
overall ratio it provides the windowed time series used by the
fluctuation figures (Fig. 6/8) and a status breakdown for diagnosis.

Intake is the telemetry bus: :meth:`MetricsCollector.attach`
subscribes to ``request.setup`` (published by every aggregator that has
a ``bus``) and ``session.resolved`` (published by the grid).  The bus
dispatches both whether or not full telemetry recording is enabled, so
the figures cost nothing extra.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sessions.session import SessionState

__all__ = ["RequestRecord", "MetricsCollector"]


@dataclass(slots=True)
class RequestRecord:
    """Final accounting for one request."""

    request_id: int
    arrival_time: float
    application: str
    qos_level: str
    status: str                      # AggregationStatus value or session fate
    success: Optional[bool]          # None while the session is still active
    lookup_hops: int = 0
    random_fallbacks: int = 0


class MetricsCollector:
    """Aggregates request outcomes into ψ, series and breakdowns."""

    def __init__(self) -> None:
        self.records: Dict[int, RequestRecord] = {}
        self.n_setup_failures = 0
        self.n_admitted = 0

    # -- bus intake ---------------------------------------------------------
    def attach(self, bus) -> None:
        """Subscribe to a telemetry bus (``request.setup`` /
        ``session.resolved``); every later request flows in automatically."""
        bus.subscribe("request.setup", self._on_setup_event)
        bus.subscribe("session.resolved", self._on_resolved_event)

    def _on_setup_event(self, event) -> None:
        f = event.fields
        admitted = f["admitted"]
        self.records[f["request_id"]] = RequestRecord(
            request_id=f["request_id"],
            arrival_time=f["arrival_time"],
            application=f["application"],
            qos_level=f["level"],
            status=f["status"],
            success=None if admitted else False,
            lookup_hops=f["lookup_hops"],
            random_fallbacks=f["random_fallbacks"],
        )
        if admitted:
            self.n_admitted += 1
        else:
            self.n_setup_failures += 1

    def _on_resolved_event(self, event) -> None:
        f = event.fields
        record = self.records.get(f["request_id"])
        if record is None:  # session admitted outside this experiment
            return
        if f["state"] == SessionState.COMPLETED.value:
            record.success = True
            record.status = "completed"
        else:
            record.success = False
            record.status = f"session-failed ({f['reason']})"

    # -- ψ -------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def n_resolved(self) -> int:
        return sum(1 for r in self.records.values() if r.success is not None)

    def success_ratio(self) -> float:
        """ψ over resolved requests (unresolved = still-active sessions)."""
        resolved = [r for r in self.records.values() if r.success is not None]
        if not resolved:
            return 0.0
        return sum(r.success for r in resolved) / len(resolved)

    # -- series & breakdowns ----------------------------------------------------
    def time_series(
        self, bin_minutes: float = 2.0, horizon: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bin_end_times, ψ per bin)`` binned by *arrival* time.

        Empty bins yield NaN so plots show gaps rather than fake zeros.
        """
        resolved = [r for r in self.records.values() if r.success is not None]
        if not resolved:
            return np.array([]), np.array([])
        end = horizon or max(r.arrival_time for r in resolved) + 1e-9
        n_bins = max(1, int(np.ceil(end / bin_minutes)))
        hits = np.zeros(n_bins)
        totals = np.zeros(n_bins)
        for r in resolved:
            b = min(int(r.arrival_time / bin_minutes), n_bins - 1)
            totals[b] += 1
            hits[b] += bool(r.success)
        with np.errstate(invalid="ignore"):
            ratios = np.where(totals > 0, hits / np.maximum(totals, 1), np.nan)
        times = (np.arange(n_bins) + 1) * bin_minutes
        return times, ratios

    def breakdown(self) -> Counter:
        """Counts by final status string."""
        return Counter(r.status for r in self.records.values())

    def mean_lookup_hops(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.lookup_hops for r in self.records.values()]))

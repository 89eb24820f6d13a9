"""Unit tests for the ψ metric collector."""

import numpy as np
import pytest

from repro.core.aggregation import AggregationStatus
from repro.experiments.metrics import MetricsCollector
from repro.sessions.session import SessionState
from repro.telemetry.bus import EventBus


def collector():
    """A collector attached to a bus: the aggregator's and the grid's
    two events are the only intake there is."""
    bus = EventBus(clock=lambda: 0.0, record=False)
    m = MetricsCollector()
    m.attach(bus)
    return m, bus


def setup(bus, rid, status, arrival=0.0, hops=3):
    bus.emit(
        "request.setup",
        request_id=rid,
        peer=0,
        application="video-on-demand",
        level="average",
        status=status.value,
        admitted=status is AggregationStatus.ADMITTED,
        lookup_hops=hops,
        random_fallbacks=0,
        arrival_time=arrival,
        duration=5.0,
    )


def resolved(bus, rid, state, reason=None):
    bus.emit(
        "session.resolved",
        session_id=rid,
        request_id=rid,
        state=state.value,
        reason=reason,
    )


class TestOutcomes:
    def test_rejection_resolves_immediately(self):
        m, bus = collector()
        setup(bus, 0, AggregationStatus.RESOURCES_DENIED)
        assert m.n_requests == 1
        assert m.n_resolved == 1
        assert m.success_ratio() == 0.0

    def test_admitted_pending_until_session(self):
        m, bus = collector()
        setup(bus, 0, AggregationStatus.ADMITTED)
        assert m.n_resolved == 0
        resolved(bus, 0, SessionState.COMPLETED)
        assert m.n_resolved == 1
        assert m.success_ratio() == 1.0

    def test_session_failure_counts_against(self):
        m, bus = collector()
        setup(bus, 0, AggregationStatus.ADMITTED)
        resolved(bus, 0, SessionState.FAILED, "peer 3 departed")
        assert m.success_ratio() == 0.0
        assert "departed" in m.records[0].status

    def test_unknown_session_ignored(self):
        m, bus = collector()
        resolved(bus, 99, SessionState.COMPLETED)
        assert m.n_requests == 0

    def test_mixed_ratio(self):
        m, bus = collector()
        for rid, status in enumerate(
            [
                AggregationStatus.ADMITTED,
                AggregationStatus.ADMITTED,
                AggregationStatus.SELECTION_FAILED,
                AggregationStatus.COMPOSITION_FAILED,
            ]
        ):
            setup(bus, rid, status)
        resolved(bus, 0, SessionState.COMPLETED)
        resolved(bus, 1, SessionState.FAILED, "x")
        assert m.success_ratio() == pytest.approx(0.25)

    def test_breakdown(self):
        m, bus = collector()
        setup(bus, 0, AggregationStatus.ADMITTED)
        setup(bus, 1, AggregationStatus.BANDWIDTH_DENIED)
        resolved(bus, 0, SessionState.COMPLETED)
        b = m.breakdown()
        assert b["completed"] == 1
        assert b["bandwidth-denied"] == 1


class TestSeries:
    def test_binning_by_arrival(self):
        m, bus = collector()
        # Two requests in bin 0 (one success), one in bin 2 (success).
        for rid, (arrival, ok) in enumerate(
            [(0.5, True), (1.5, False), (5.0, True)]
        ):
            status = (
                AggregationStatus.ADMITTED if ok
                else AggregationStatus.RESOURCES_DENIED
            )
            setup(bus, rid, status, arrival=arrival)
            if ok:
                resolved(bus, rid, SessionState.COMPLETED)
        times, ratios = m.time_series(bin_minutes=2.0, horizon=6.0)
        assert list(times) == [2.0, 4.0, 6.0]
        assert ratios[0] == pytest.approx(0.5)
        assert np.isnan(ratios[1])
        assert ratios[2] == pytest.approx(1.0)

    def test_empty_series(self):
        m, bus = collector()
        times, ratios = m.time_series()
        assert len(times) == 0 and len(ratios) == 0

    def test_hops_and_fallbacks(self):
        m, bus = collector()
        setup(bus, 0, AggregationStatus.ADMITTED, hops=7)
        assert m.mean_lookup_hops() == 7.0

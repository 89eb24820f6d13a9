"""Integration: the instrumented grid feeds the telemetry layer.

Drives a small churny grid with telemetry enabled and checks that every
subsystem shows up on the bus, that the stream is totally ordered, that
every emitted name is documented in the catalog, and that a disabled
grid emits/records nothing beyond the metrics-layer feed.
"""

import pytest

from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig
from repro.sessions.recovery import RecoveryConfig
from repro.telemetry import EVENT_CATALOG
from repro.telemetry.spans import render_span_tree


def drive(grid, minutes=15, per_minute=3):
    agg = grid.make_aggregator("qsa")

    def tick():
        for _ in range(per_minute):
            agg.aggregate(grid.make_request("video-on-demand", duration=5.0))

    for t in range(minutes):
        grid.sim.call_at(float(t), tick)
    grid.sim.run(until=float(minutes) + 10.0)


@pytest.fixture(scope="module")
def traced_grid():
    grid = P2PGrid(GridConfig(
        n_peers=150, seed=5, telemetry=True,
        churn=ChurnConfig(rate_per_min=4.0),
        recovery=RecoveryConfig(),
    ))
    drive(grid)
    grid.churn.stop()
    grid.sim.run()
    return grid


class TestEnabledGrid:
    def test_every_subsystem_reports(self, traced_grid):
        counts = traced_grid.telemetry.bus.counts()
        for name in (
            "request.setup", "qcs.composed", "selection.hop",
            "probe.refresh", "lookup.done", "session.admitted",
            "session.resolved", "churn.join", "churn.leave", "span",
        ):
            assert counts.get(name, 0) > 0, f"no {name} events"

    def test_event_names_are_catalogued(self, traced_grid):
        emitted = set(traced_grid.telemetry.bus.counts())
        assert emitted <= set(EVENT_CATALOG)

    def test_stream_is_totally_ordered(self, traced_grid):
        events = traced_grid.telemetry.bus.events()
        keys = [(e.time, e.seq) for e in events]
        assert keys == sorted(keys)
        times = [e.time for e in events]
        assert times == sorted(times)  # non-decreasing sim timestamps

    def test_counters_match_subsystem_state(self, traced_grid):
        tel = traced_grid.telemetry
        counters = tel.metrics.counters()
        ledger = traced_grid.ledger
        assert counters["session.admitted"] == ledger.n_admitted
        assert counters["session.completed"] == ledger.n_completed
        assert counters.get("session.failed", 0) == ledger.n_failed
        churn = traced_grid.churn
        assert counters["churn.arrivals"] == churn.n_arrivals
        assert counters["churn.departures"] == churn.n_departures
        assert counters["probe.messages_sent"] == traced_grid.probing.probe_messages

    def test_lookup_histogram_matches_ring(self, traced_grid):
        hist = traced_grid.telemetry.metrics.histogram("lookup.hops")
        assert hist.count == traced_grid.ring.n_lookups
        assert hist.total == traced_grid.ring.total_hops

    def test_span_tree_renders(self, traced_grid):
        tree = render_span_tree(list(traced_grid.telemetry.bus))
        assert "request" in tree
        assert "qcs.compose" in tree

    def test_summary_renders(self, traced_grid):
        summary = traced_grid.telemetry.summary()
        assert "events" in summary
        assert "counters" in summary


class TestDisabledGrid:
    def test_emits_only_metrics_feed_and_records_nothing(self):
        grid = P2PGrid(GridConfig(n_peers=150, seed=5))
        drive(grid, minutes=5)
        grid.sim.run()
        tel = grid.telemetry
        assert not tel.enabled
        assert len(tel.bus) == 0          # nothing retained
        assert tel.metrics.empty          # no instrument ever touched
        assert tel.tracer.wall_totals() == {}
        # The dispatch-only feed still carries the metrics-layer events.
        assert tel.bus.n_emitted > 0

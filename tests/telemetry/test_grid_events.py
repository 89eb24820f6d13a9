"""The grid's lifecycle on the event bus, and each count against its source.

The bus is the grid's one event log: requests, sessions, repairs and
churn are read from ``grid.telemetry.bus``.  The parity cases pin every
lifecycle event count to the counter of the subsystem that emits it, so
an emission site that is skipped or doubled shows up as a mismatch.
"""

import pytest

from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig
from repro.sessions.recovery import RecoveryConfig


class TestGridIntegration:
    def test_run_records_lifecycle(self):
        grid = P2PGrid(GridConfig(n_peers=200, seed=8, telemetry=True))
        agg = grid.make_aggregator("qsa")
        for _ in range(5):
            agg.aggregate(grid.make_request("video-on-demand", duration=1.0))
        grid.sim.run(until=3.0)
        counts = grid.telemetry.bus.counts()
        assert counts["request.setup"] == 5
        assert counts.get("session.admitted", 0) >= 1
        assert counts.get("session.completed", 0) >= 1

    def test_departure_repair_names_the_peers(self):
        grid = P2PGrid(GridConfig(
            n_peers=200, seed=9, telemetry=True, recovery=RecoveryConfig(),
        ))
        agg = grid.make_aggregator("qsa")
        res = None
        for _ in range(10):
            res = agg.aggregate(
                grid.make_request("video-on-demand", duration=50.0)
            )
            if res.admitted:
                break
        assert res.admitted
        victim = res.peers[0]
        grid._on_peer_departure(victim)
        grid.directory.depart(victim, grid.sim.now)
        bus = grid.telemetry.bus
        repaired = bus.events("recovery.repaired")
        assert len(repaired) + len(bus.events("session.failed")) == 1
        for event in repaired:
            assert event.session_id == res.session.session_id
            assert event.old_peers == res.peers
            assert victim not in event.new_peers
            assert len(event.new_peers) == len(event.old_peers)


@pytest.fixture(scope="module")
def churned_grid():
    """Churn + recovery + client releases, run to quiescence."""
    grid = P2PGrid(GridConfig(
        n_peers=150, seed=5, telemetry=True,
        churn=ChurnConfig(rate_per_min=6.0),
        recovery=RecoveryConfig(detection_delay=0.5),
    ))
    agg = grid.make_aggregator("qsa")

    def tick():
        for _ in range(4):
            agg.aggregate(grid.make_request("video-on-demand", duration=5.0))
        active = grid.ledger.active_sessions()
        if active:
            grid.ledger.release_session(active[0].session_id)

    for t in range(20):
        grid.sim.call_at(float(t), tick)
    grid.sim.run(until=30.0)
    grid.churn.stop()
    grid.sim.run()
    return grid


class TestCounterParity:
    def test_every_kind_happened(self, churned_grid):
        counts = churned_grid.telemetry.bus.counts()
        for name in (
            "session.admitted", "session.completed", "session.failed",
            "session.released", "recovery.repaired", "churn.join",
            "churn.leave",
        ):
            assert counts.get(name, 0) > 0, f"no {name} events"

    def test_session_events_match_the_ledger(self, churned_grid):
        counts = churned_grid.telemetry.bus.counts()
        ledger = churned_grid.ledger
        assert counts["session.admitted"] == ledger.n_admitted
        assert counts["session.failed"] == ledger.n_failed
        assert counts["session.released"] == ledger.n_released
        # The ledger counts a client release as a completion too.
        assert (
            counts["session.completed"] + counts["session.released"]
            == ledger.n_completed
        )

    def test_repair_events_match_recovery(self, churned_grid):
        counts = churned_grid.telemetry.bus.counts()
        recovery = churned_grid.recovery
        assert counts["recovery.repaired"] == recovery.n_repairs
        assert counts.get("recovery.failed", 0) == recovery.n_repair_failures

    def test_churn_events_match_the_churn_process(self, churned_grid):
        counts = churned_grid.telemetry.bus.counts()
        churn = churned_grid.churn
        assert counts["churn.join"] == churn.n_arrivals
        assert counts["churn.leave"] == churn.n_departures

    def test_each_resolved_session_resolves_once(self, churned_grid):
        bus = churned_grid.telemetry.bus
        resolved = [e.session_id for e in bus.events("session.resolved")]
        assert len(resolved) == len(set(resolved))
        ended = {
            e.session_id
            for name in ("session.completed", "session.released",
                         "session.failed")
            for e in bus.events(name)
        }
        assert set(resolved) == ended
        assert churned_grid.ledger.n_active == 0
        ledger = churned_grid.ledger
        assert len(resolved) == ledger.n_completed + ledger.n_failed

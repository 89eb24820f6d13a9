"""Unit/integration tests for runtime failure detection and recovery."""

import numpy as np
import pytest

from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig
from repro.sessions.recovery import RecoveryConfig
from repro.sessions.session import SessionState


def make_grid(recovery=None, n_peers=300, seed=5):
    return P2PGrid(GridConfig(n_peers=n_peers, seed=seed, recovery=recovery))


def admit_session(grid, duration=50.0, app="video-on-demand", tries=20):
    agg = grid.make_aggregator("qsa")
    for _ in range(tries):
        req = grid.make_request(app, qos_level="average", duration=duration)
        res = agg.aggregate(req)
        if res.admitted:
            return res
    raise AssertionError("no admissible request")


def kill_peer(grid, pid):
    grid._on_peer_departure(pid)
    grid.directory.depart(pid, grid.sim.now)


class TestRecoveryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(detection_delay=-1.0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_attempts=0)

    def test_grid_without_recovery_has_none(self):
        assert make_grid().recovery is None

    def test_grid_with_recovery_wired(self):
        g = make_grid(recovery=RecoveryConfig())
        assert g.recovery is not None


class TestRepair:
    def test_session_survives_single_departure(self):
        g = make_grid(recovery=RecoveryConfig())
        res = admit_session(g)
        victim = res.peers[0]
        kill_peer(g, victim)
        session = res.session
        assert session.state is SessionState.ACTIVE
        assert victim not in session.peers
        assert g.recovery.n_repairs == 1
        # Replacement hosts the same instance.
        replacement = session.peers[0]
        assert replacement in g.catalog.hosts(session.instances[0].instance_id)
        # The session still completes and the books balance.
        g.sim.run()
        assert session.state is SessionState.COMPLETED
        assert g.network.n_reserved_pairs == 0

    def test_user_peer_departure_is_fatal(self):
        g = make_grid(recovery=RecoveryConfig())
        res = admit_session(g)
        kill_peer(g, res.session.user_peer)
        assert res.session.state is SessionState.FAILED

    def test_repaired_session_indexed_under_new_peer(self):
        g = make_grid(recovery=RecoveryConfig())
        res = admit_session(g)
        victim = res.peers[-1]
        kill_peer(g, victim)
        session = res.session
        if session.state is SessionState.ACTIVE:  # repaired
            new_peer = session.peers[-1]
            assert session.session_id in g.ledger.sessions_on_peer(new_peer)
            assert session.session_id not in g.ledger.sessions_on_peer(victim)

    def test_attempt_budget_exhausts(self):
        g = make_grid(recovery=RecoveryConfig(max_attempts=1))
        res = admit_session(g)
        session = res.session
        kill_peer(g, session.peers[0])
        assert g.recovery.n_repairs <= 1
        if session.state is SessionState.ACTIVE:
            kill_peer(g, session.peers[0])
            assert session.state is SessionState.FAILED

    def test_detection_delay_defers_repair(self):
        g = make_grid(recovery=RecoveryConfig(detection_delay=2.0))
        res = admit_session(g, duration=30.0)
        session = res.session
        victim = session.peers[0]
        kill_peer(g, victim)
        # Not yet repaired: the repair event sits in the future.
        assert victim in session.peers
        g.sim.run(until=g.sim.now + 3.0)
        assert session.state in (SessionState.ACTIVE, SessionState.FAILED)
        if session.state is SessionState.ACTIVE:
            assert victim not in session.peers

    def test_second_departure_in_window_is_fatal(self):
        g = make_grid(recovery=RecoveryConfig(detection_delay=2.0))
        res = admit_session(g, app="medical-imaging", duration=30.0)
        session = res.session
        first, second = session.peers[0], session.peers[1]
        if first == second:
            pytest.skip("same peer selected twice")
        kill_peer(g, first)
        kill_peer(g, second)
        g.sim.run(until=g.sim.now + 3.0)
        assert session.state is SessionState.FAILED


def drained_churny_run():
    """30 minutes of requests on 200 peers under churn with recovery,
    then churn stops and every session drains."""
    g = P2PGrid(GridConfig(
        n_peers=200,
        seed=3,
        churn=ChurnConfig(rate_per_min=8.0),
        recovery=RecoveryConfig(),
    ))
    agg = g.make_aggregator("qsa")

    def tick():
        req = g.make_request("video-on-demand", duration=5.0)
        agg.aggregate(req)

    for t in range(30):
        g.sim.call_at(float(t), tick)
    g.sim.run(until=30.0)
    g.churn.stop()
    g.sim.run()
    return g


class TestConservationUnderRecovery:
    def test_books_balance_after_churny_run(self):
        g = drained_churny_run()
        assert g.ledger.n_active == 0
        assert g.network.n_reserved_pairs == 0
        for peer in g.directory.alive_peers():
            assert np.all(
                peer.available.values <= peer.capacity.values + 1e-9
            )
            assert np.allclose(peer.available.values, peer.capacity.values)
            assert peer.avail_up == pytest.approx(peer.access_bw)
            assert peer.avail_down == pytest.approx(peer.access_bw)

    def test_drained_run_leaves_no_per_session_recovery_state(self):
        """Repair budgets live and die with their session: once every
        session resolved, the manager holds no per-session entry."""
        g = drained_churny_run()
        assert g.recovery.n_repairs > 0 and g.ledger.n_active == 0
        held = {
            name: value for name, value in vars(g.recovery).items()
            if isinstance(value, (dict, list, set)) and value
        }
        assert held == {}

    @pytest.mark.slow
    def test_recovery_improves_psi_under_churn(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment
        from repro.workload.generator import WorkloadConfig

        def run(recovery):
            cfg = ExperimentConfig(
                grid=GridConfig(
                    n_peers=300, seed=4,
                    churn=ChurnConfig(rate_per_min=10.0),
                    recovery=recovery,
                ),
                workload=WorkloadConfig(rate_per_min=10.0, horizon=20.0),
            )
            return run_experiment(cfg.with_algorithm("qsa")).success_ratio

        assert run(RecoveryConfig()) > run(None)

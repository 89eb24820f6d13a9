"""Unit tests for the session ledger lifecycle."""

import pytest

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.sessions.admission import AdmissionError
from repro.sessions.session import SessionLedger, SessionState
from repro.sim import Simulator
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")


def rv(cpu, mem):
    return ResourceVector(NAMES, [cpu, mem])


def inst(iid, cpu=10.0, mem=10.0, bw=100.0):
    return make_instance(
        iid, iid.split("/")[0], QoSVector(), QoSVector(), rv(cpu, mem), bw
    )


def make(n=5, capacity=100.0):
    sim = Simulator()
    d = SoAPeerDirectory(NAMES)
    for _ in range(n):
        d.create_peer(rv(capacity, capacity), 1e6, 0.0)
    net = NetworkModel(d, seed=0)
    outcomes = []
    ledger = SessionLedger(sim, d, net, on_outcome=outcomes.append)
    return sim, d, net, ledger, outcomes


class TestAdmit:
    def test_admit_creates_active_session(self):
        sim, d, net, ledger, _ = make()
        s = ledger.admit(1, 0, [inst("a/0"), inst("b/0")], [1, 2], duration=10.0)
        assert s.state is SessionState.ACTIVE
        assert ledger.n_active == 1
        assert s.participants == {1, 2}
        assert s.end == 10.0

    def test_admit_shortage_raises_and_leaves_nothing(self):
        sim, d, net, ledger, _ = make(capacity=5.0)
        with pytest.raises(AdmissionError):
            ledger.admit(1, 0, [inst("a/0", cpu=10)], [1], duration=10.0)
        assert ledger.n_active == 0
        assert list(d[1].available.values) == [5.0, 5.0]

    def test_connections_chain_to_user(self):
        sim, d, net, ledger, _ = make()
        s = ledger.admit(
            1, 0, [inst("a/0", bw=10), inst("b/0", bw=20)], [3, 4], 5.0
        )
        assert s.connections() == [(3, 4, 10.0), (4, 0, 20.0)]


class TestCompletion:
    def test_completion_releases_and_reports(self):
        sim, d, net, ledger, outcomes = make()
        ledger.admit(1, 0, [inst("a/0", cpu=30)], [1], duration=10.0)
        sim.run(until=11.0)
        assert ledger.n_active == 0
        assert ledger.n_completed == 1
        assert list(d[1].available.values) == [100.0, 100.0]
        assert net.n_reserved_pairs == 0
        assert len(outcomes) == 1
        assert outcomes[0].state is SessionState.COMPLETED

    def test_concurrent_sessions_independent(self):
        sim, d, net, ledger, outcomes = make()
        ledger.admit(1, 0, [inst("a/0", cpu=30)], [1], duration=5.0)
        ledger.admit(2, 0, [inst("b/0", cpu=30)], [1], duration=15.0)
        sim.run(until=6.0)
        assert ledger.n_completed == 1
        assert ledger.n_active == 1
        assert list(d[1].available.values) == [70.0, 90.0]
        sim.run(until=16.0)
        assert ledger.n_completed == 2
        assert list(d[1].available.values) == [100.0, 100.0]


class TestPeerFailure:
    def test_fail_peer_kills_its_sessions(self):
        sim, d, net, ledger, outcomes = make()
        s = ledger.admit(1, 0, [inst("a/0"), inst("b/0")], [1, 2], 10.0)
        failed = ledger.fail_peer(2)
        assert [f.session_id for f in failed] == [s.session_id]
        assert s.state is SessionState.FAILED
        assert "departed" in s.failure_reason
        assert ledger.n_failed == 1
        assert ledger.n_active == 0
        # Peer 1's resources released; peer 2's skipped (it left).
        assert list(d[1].available.values) == [100.0, 100.0]
        assert net.n_reserved_pairs == 0

    def test_fail_user_peer_kills_session(self):
        sim, d, net, ledger, _ = make()
        ledger.admit(1, 0, [inst("a/0")], [1], 10.0)
        failed = ledger.fail_peer(0)  # the user's own host departs
        assert len(failed) == 1

    def test_fail_uninvolved_peer_noop(self):
        sim, d, net, ledger, _ = make()
        ledger.admit(1, 0, [inst("a/0")], [1], 10.0)
        assert ledger.fail_peer(4) == []
        assert ledger.n_active == 1

    def test_failed_session_does_not_complete_later(self):
        sim, d, net, ledger, outcomes = make()
        ledger.admit(1, 0, [inst("a/0")], [1], 10.0)
        ledger.fail_peer(1)
        sim.run(until=11.0)  # the completion timer fires harmlessly
        assert ledger.n_completed == 0
        assert ledger.n_failed == 1
        assert len(outcomes) == 1

    def test_fail_peer_with_multiple_sessions(self):
        sim, d, net, ledger, _ = make()
        for rid in range(3):
            ledger.admit(rid, 0, [inst(f"a/{rid}", cpu=10)], [1], 10.0)
        failed = ledger.fail_peer(1)
        assert len(failed) == 3
        assert ledger.n_failed == 3

    def test_sessions_on_peer_tracking(self):
        sim, d, net, ledger, _ = make()
        s = ledger.admit(1, 0, [inst("a/0")], [1], 10.0)
        assert ledger.sessions_on_peer(1) == [s.session_id]
        assert ledger.sessions_on_peer(0) == [s.session_id]  # user side
        sim.run(until=11.0)
        assert ledger.sessions_on_peer(1) == []

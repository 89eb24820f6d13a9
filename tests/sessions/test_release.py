"""Idempotent session teardown: holds are released exactly once.

The serving plane's ``DELETE /sessions/{id}`` introduced a second
teardown path that can race the scheduled completion (and recovery);
these tests pin the contract: ``release_session`` rolls everything back,
repeated teardowns are no-ops, and no path ever double-credits the
resource or bandwidth books.
"""

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
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


class TestReleaseSession:
    def test_release_rolls_back_everything(self):
        sim, d, net, ledger, outcomes = make()
        s = ledger.admit(1, 0, [inst("a/0", cpu=30)], [1], duration=10.0)
        released = ledger.release_session(s.session_id)
        assert released is s
        assert s.state is SessionState.COMPLETED
        assert s.failure_reason == "client-release"
        assert ledger.n_active == 0
        assert ledger.n_completed == 1
        assert ledger.n_released == 1
        assert list(d[1].available.values) == [100.0, 100.0]
        assert net.n_reserved_pairs == 0
        assert [o.session_id for o in outcomes] == [s.session_id]

    def test_release_unknown_session_returns_none(self):
        sim, d, net, ledger, _ = make()
        assert ledger.release_session(42) is None
        assert ledger.n_released == 0

    def test_second_release_is_noop(self):
        sim, d, net, ledger, outcomes = make()
        s = ledger.admit(1, 0, [inst("a/0", cpu=30)], [1], duration=10.0)
        assert ledger.release_session(s.session_id) is s
        assert ledger.release_session(s.session_id) is None
        assert ledger.n_released == 1
        assert ledger.n_completed == 1
        assert list(d[1].available.values) == [100.0, 100.0]
        assert len(outcomes) == 1

    def test_scheduled_completion_after_release_is_noop(self):
        # DELETE racing the completion timer: the timer must find the
        # session gone and credit nothing a second time.
        sim, d, net, ledger, outcomes = make()
        s = ledger.admit(1, 0, [inst("a/0", cpu=30)], [1], duration=10.0)
        ledger.release_session(s.session_id)
        sim.run(until=11.0)  # the scheduled _complete fires here
        assert ledger.n_completed == 1
        assert ledger.n_released == 1
        assert list(d[1].available.values) == [100.0, 100.0]
        assert len(outcomes) == 1

    def test_release_after_failure_is_noop(self):
        sim, d, net, ledger, outcomes = make()
        s = ledger.admit(1, 0, [inst("a/0"), inst("b/0")], [1, 2], 10.0)
        ledger.fail_peer(2)
        assert ledger.release_session(s.session_id) is None
        assert ledger.n_failed == 1
        assert ledger.n_released == 0
        assert len(outcomes) == 1


class TestReleaseLatch:
    def test_internal_double_release_credits_once(self):
        # Even calling the internal rollback twice must not double-credit
        # (the `released` latch, not caller discipline, is the guarantee).
        sim, d, net, ledger, _ = make()
        s = ledger.admit(1, 0, [inst("a/0", cpu=30)], [1], duration=10.0)
        assert not s.released
        ledger._release(s)
        assert s.released
        before = list(d[1].available.values)
        ledger._release(s)
        assert list(d[1].available.values) == before == [100.0, 100.0]

    def test_concurrent_sessions_unaffected_by_release(self):
        sim, d, net, ledger, _ = make()
        a = ledger.admit(1, 0, [inst("a/0", cpu=30)], [1], duration=10.0)
        ledger.admit(2, 0, [inst("b/0", cpu=20)], [1], duration=10.0)
        ledger.release_session(a.session_id)
        # Only a's holds came back; b still holds 20 cpu / 10 mem.
        assert list(d[1].available.values) == [80.0, 90.0]
        sim.run(until=11.0)
        assert list(d[1].available.values) == [100.0, 100.0]
        assert ledger.n_completed == 2

"""Unit tests for the probing service (staleness, budget, overhead)."""

import pytest

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.probing.prober import ProbingConfig, ProbingService
from repro.sim import Simulator
from tests.probing.flood import flood, get, holds, table_of

NAMES = ("cpu", "memory")


def rv(cpu, mem):
    return ResourceVector(NAMES, [cpu, mem])


def make(n=10, budget=100, period=1.0, ttl=10.0):
    sim = Simulator()
    d = SoAPeerDirectory(NAMES, initial_rows=n)
    for i in range(n):
        d.create_peer(rv(100, 100), 1e6, joined_at=-float(i))
    net = NetworkModel(d, seed=0)
    probing = ProbingService(
        sim, d, net, ProbingConfig(budget=budget, period=period, ttl=ttl)
    )
    return sim, d, net, probing


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbingConfig(period=0.0)
        with pytest.raises(ValueError):
            ProbingConfig(ttl=0.0)


class TestVisibility:
    def test_unknown_target_invisible(self):
        sim, d, net, probing = make()
        assert probing.observe(0, 1) is None

    def test_resolved_target_visible(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(1, 1, True)])
        info = probing.observe(0, 1)
        assert info is not None
        assert info.peer_id == 1
        assert list(info.availability.values) == [100.0, 100.0]

    def test_visibility_not_symmetric(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(1, 1, True)])
        assert probing.observe(1, 0) is None

    def test_budget_limits_visibility(self):
        sim, d, net, probing = make(n=10, budget=3)
        flood(probing, 0, [(i, 1, True) for i in range(1, 10)])
        visible = [i for i in range(1, 10) if probing.observe(0, i) is not None]
        assert len(visible) == 3

    def test_departed_target_dropped_on_observe(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(1, 1, True)])
        d.depart(1, 0.0)
        assert probing.observe(0, 1) is None
        assert not holds(table_of(probing, 0), 1)

    def test_resolve_selection_hops_direct_and_skip_self(self):
        sim, d, net, probing = make()
        probing.resolve_selection_hops(0, [[1, 0], [2, 3]], direct=True)
        assert probing.observe(0, 1) is not None
        assert probing.observe(0, 2) is not None
        assert not holds(table_of(probing, 0), 0)
        e1 = get(table_of(probing, 0), 1, 0.0)
        e2 = get(table_of(probing, 0), 2, 0.0)
        assert e1.hop == 1 and e2.hop == 2 and e1.direct


class TestStaleness:
    def test_same_epoch_serves_snapshot(self):
        sim, d, net, probing = make(period=1.0)
        flood(probing, 0, [(1, 1, True)])
        before = probing.observe(0, 1)
        # The target's load changes mid-epoch...
        d.reserve(1, rv(50, 50))
        after = probing.observe(0, 1)
        # ...but the observer still sees the epoch snapshot.
        assert list(after.availability.values) == list(before.availability.values)

    def test_new_epoch_refreshes(self):
        sim, d, net, probing = make(period=1.0)
        flood(probing, 0, [(1, 1, True)])
        probing.observe(0, 1)
        d.reserve(1, rv(50, 50))
        sim.run(until=sim.now + 1.5)  # past the epoch boundary
        info = probing.observe(0, 1)
        assert list(info.availability.values) == [50.0, 50.0]

    def test_snapshot_shared_across_observers(self):
        sim, d, net, probing = make(period=1.0)
        flood(probing, 0, [(2, 1, True)])
        flood(probing, 1, [(2, 1, True)])
        probing.observe(0, 2)
        msgs = probing.probe_messages
        probing.observe(1, 2)  # same epoch: no second probe message
        assert probing.probe_messages == msgs

    def test_uptime_reported_from_snapshot(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(3, 1, True)])
        info = probing.observe(0, 3)
        assert info.uptime == pytest.approx(3.0)  # joined at -3


class TestBandwidth:
    def test_beta_bounded_by_pair_and_links(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(1, 1, True)])
        info = probing.observe(0, 1)
        assert info.bandwidth_to_observer <= net.pair_capacity(1, 0)
        assert info.bandwidth_to_observer <= d[1].avail_up
        assert info.bandwidth_to_observer <= d[0].avail_down

    def test_latency_reported(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(1, 1, True)])
        info = probing.observe(0, 1)
        assert info.latency == net.latency_ms(1, 0)


class TestOverhead:
    def test_overhead_ratio_tracks_budget(self):
        sim, d, net, probing = make(n=10, budget=2)
        flood(probing, 0, [(i, 1, True) for i in range(1, 10)])
        # One table with 2 entries over 10 alive peers = 0.2.
        assert probing.overhead_ratio() == pytest.approx(0.2)

    def test_overhead_zero_without_tables(self):
        sim, d, net, probing = make()
        assert probing.overhead_ratio() == 0.0

    def test_message_counters(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(1, 1, True), (2, 2, False)])
        assert probing.resolution_messages == 2
        probing.observe(0, 1)
        probing.observe(0, 2)
        assert probing.probe_messages == 2

    def test_drop_peer_clears_state(self):
        sim, d, net, probing = make()
        flood(probing, 0, [(1, 1, True)])
        probing.observe(0, 1)
        probing.drop_peer(0)
        assert len(probing._tables) == 0


class TestResolutionReport:
    """``resolve_selection_hops`` -> ``observe_block(known=...)``: the
    positions must index the hop's candidate list as the selector holds
    it, whatever the resolver filtered on the way to the table."""

    @staticmethod
    def make_soa(n=12, budget=100):
        sim, _, _, probing = make(n=n, budget=budget)
        return sim, probing

    @staticmethod
    def known_by_lookup(probing, observer, candidates):
        """What the selector finds when it searches the table itself."""
        return probing.observe_block(observer, candidates)[0].tolist()

    def test_reports_the_leading_candidates_it_holds(self):
        _, probing = self.make_soa(budget=3)
        hops = [(1, 4, 6, 9), (2, 4), (7,)]
        known = probing.resolve_selection_hops(
            5, hops, direct=True, plan=probing.selection_plan(hops)[0]
        )
        # Budget 3 < 4 leading candidates: insertion order evicts the first.
        assert known.tolist() == [1, 2, 3]
        assert known.tolist() == self.known_by_lookup(probing, 5, hops[0])
        block = probing.observe_block(5, hops[0], known=known)
        assert block[0].tolist() == [1, 2, 3] and len(block[2]) == 3

    def test_observer_among_its_own_leading_candidates(self):
        """The resolver drops the observer from the block, so block
        positions sit one below candidate positions after it."""
        for budget in (100, 2):
            _, probing = self.make_soa(budget=budget)
            hops = [(1, 5, 6, 9), (2, 5)]
            known = probing.resolve_selection_hops(5, hops, direct=True)
            assert not holds(table_of(probing, 5), 5)
            expected = [0, 2, 3] if budget == 100 else [2, 3]
            block = probing.observe_block(5, hops[0], known=known)
            assert block[0].tolist() == expected
            assert self.known_by_lookup(probing, 5, hops[0]) == expected

    def test_every_id_already_a_fresh_member(self):
        _, probing = self.make_soa()
        hops = [(1, 4, 6), (2, 4)]
        first = probing.resolve_selection_hops(0, hops, direct=True)
        messages = probing.resolution_messages
        state = [(e.peer_id, e.hop, e.direct, e.expires_at)
                 for e in table_of(probing, 0).entries()]
        again = probing.resolve_selection_hops(0, hops, direct=True)
        assert first.tolist() == again.tolist() == [0, 1, 2]
        assert probing.resolution_messages == messages  # nothing needed
        assert state == [(e.peer_id, e.hop, e.direct, e.expires_at)
                         for e in table_of(probing, 0).entries()]

    def test_plain_path_and_repeated_candidates_report_nothing(self):
        _, probing = self.make_soa()
        assert probing.resolve_selection_hops(0, [[3, 3, 4]], True) is None
        assert self.known_by_lookup(probing, 0, [3, 3, 4]) == [0, 1, 2]

"""End-to-end tests of the dynamic neighbor resolution protocol (§3.3).

These drive the protocol through the real aggregator and inspect the
neighbor tables it leaves behind: direct relationships at the requesting
host, indirect ones along the chain, hop numbering in the reverse flow
direction, soft-state expiry, and budget behaviour under many
applications.
"""

import pytest

from repro.grid import GridConfig, P2PGrid
from repro.probing.prober import ProbingConfig
from tests.probing.flood import active_ids, get, table_of


def fresh_grid(budget=100, ttl=10.0, seed=33):
    return P2PGrid(GridConfig(
        n_peers=250, seed=seed,
        probing=ProbingConfig(budget=budget, period=1.0, ttl=ttl),
    ))


def admit(grid, app="translated-vod", tries=15, duration=1.0):
    agg = grid.make_aggregator("qsa")
    for _ in range(tries):
        req = grid.make_request(app, qos_level="low", duration=duration)
        res = agg.aggregate(req)
        if res.admitted:
            return req, res
    raise AssertionError("no admission")


class TestResolutionThroughAggregation:
    def test_requester_learns_direct_neighbors_per_hop(self):
        # Budget large enough that no resolved entry is evicted, so every
        # hop relationship is observable.
        grid = fresh_grid(budget=500)
        req, res = admit(grid)
        table = table_of(grid.probing, req.peer_id)
        # The user-adjacent instance's hosts are 1-hop direct neighbors.
        last_inst = res.composed.instances[-1]
        for pid in list(grid.catalog.hosts(last_inst.instance_id))[:10]:
            if pid == req.peer_id:
                continue
            entry = get(table, pid, grid.sim.now)
            assert entry is not None
            assert entry.direct
            assert entry.hop == 1
        # The source instance's hosts are n-hop direct neighbors (or
        # nearer, when the peer also hosts an earlier-hop instance).
        src_inst = res.composed.instances[0]
        n = len(res.composed.instances)
        for pid in list(grid.catalog.hosts(src_inst.instance_id))[:10]:
            if pid == req.peer_id:
                continue
            entry = get(table, pid, grid.sim.now)
            assert entry is not None
            assert 1 <= entry.hop <= n

    def test_selected_peers_learn_indirect_neighbors(self):
        grid = fresh_grid(budget=500)
        req, res = admit(grid)
        # The first selected peer (user-adjacent) resolved the hosts of
        # the *preceding* services as indirect neighbors.
        first_selected = res.peers[-1]
        if first_selected == req.peer_id:
            pytest.skip("self-selection")
        table = table_of(grid.probing, first_selected)
        pred_inst = res.composed.instances[-2]
        found_indirect = 0
        for pid in grid.catalog.hosts(pred_inst.instance_id):
            entry = get(table, pid, grid.sim.now)
            if entry is not None and not entry.direct:
                found_indirect += 1
        assert found_indirect > 0

    def test_soft_state_expires(self):
        grid = fresh_grid(ttl=2.0)
        req, res = admit(grid)
        table = table_of(grid.probing, req.peer_id)
        assert len(active_ids(table, grid.sim.now)) > 0
        grid.sim.run(until=grid.sim.now + 5.0)
        assert active_ids(table, grid.sim.now) == []

    def test_budget_respected_across_many_requests(self):
        grid = fresh_grid(budget=25)
        agg = grid.make_aggregator("qsa")
        requester = grid.directory.alive_ids[0]
        for app in [a.name for a in grid.applications]:
            req = grid.make_request(app, qos_level="low", duration=0.5,
                                    peer_id=requester)
            agg.aggregate(req)
            grid.sim.run()
        assert len(table_of(grid.probing, requester)) <= 25

    def test_budget_keeps_nearest_hops(self):
        grid = fresh_grid(budget=25)
        agg = grid.make_aggregator("qsa")
        requester = grid.directory.alive_ids[0]
        for app in [a.name for a in grid.applications]:
            req = grid.make_request(app, qos_level="low", duration=0.5,
                                    peer_id=requester)
            agg.aggregate(req)
            grid.sim.run()
        entries = table_of(grid.probing, requester).entries()
        hops = [e.hop for e in entries]
        # Eviction by benefit: the retained set skews to low hop counts.
        assert sum(1 for h in hops if h <= 2) >= len(hops) * 0.5

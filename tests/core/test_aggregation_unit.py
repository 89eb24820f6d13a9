"""Unit tests for the aggregation pipeline's branch behaviour (with fakes)."""

import numpy as np
import pytest

from repro.core.aggregation import AggregationStatus, BaseAggregator
from repro.core.composition import CompositionError
from repro.grid import GridConfig, P2PGrid
from repro.services.qoscompiler import UserRequest

NAMES = ("cpu", "memory")


def request(app="video-on-demand", level="average"):
    return UserRequest(
        request_id=0, peer_id=0, application=app, qos_level=level,
        session_duration=5.0, arrival_time=0.0,
    )


@pytest.fixture()
def grid():
    return P2PGrid(GridConfig(n_peers=200, seed=13))


class TestStatusBranches:
    def test_no_candidates(self, grid):
        """Discovery returning nothing for a service -> NO_CANDIDATES."""
        agg = grid.make_aggregator("qsa")
        # Erase the service record for one abstract service.
        svc = grid.applications[1].services[0]
        grid.ring.put("service:" + svc, ())
        res = agg.aggregate(
            grid.make_request(grid.applications[1].name, duration=1.0)
        )
        assert res.status is AggregationStatus.NO_CANDIDATES
        assert res.session is None

    def test_composition_failed(self, grid):
        agg = grid.make_aggregator("qsa")

        def explode(*a, **kw):
            raise CompositionError("nope")

        agg.compose = explode
        res = agg.aggregate(grid.make_request("video-on-demand", duration=1.0))
        assert res.status is AggregationStatus.COMPOSITION_FAILED

    def test_selection_failed(self, grid):
        agg = grid.make_aggregator("qsa")
        agg.select_peers = lambda *a, **kw: None
        res = agg.aggregate(grid.make_request("video-on-demand", duration=1.0))
        assert res.status is AggregationStatus.SELECTION_FAILED
        assert res.composed is not None

    def test_resources_denied(self, grid):
        agg = grid.make_aggregator("qsa")
        original = agg.select_peers

        def select_then_drain(req, composed, hosts):
            peers = original(req, composed, hosts)
            if peers:
                # Drain the first peer so admission must fail.
                d = grid.directory
                d.store.available[d.row_of(peers[0])] = 0.0
            return peers

        agg.select_peers = select_then_drain
        res = agg.aggregate(grid.make_request("video-on-demand", duration=1.0))
        assert res.status is AggregationStatus.RESOURCES_DENIED

    def test_bandwidth_denied(self, grid):
        agg = grid.make_aggregator("qsa")
        original = agg.select_peers

        def select_then_choke(req, composed, hosts):
            peers = original(req, composed, hosts)
            if peers:
                d = grid.directory
                d.store.avail_up[d.row_of(peers[0])] = 0.0
            return peers

        agg.select_peers = select_then_choke
        res = agg.aggregate(grid.make_request("video-on-demand", duration=1.0))
        assert res.status is AggregationStatus.BANDWIDTH_DENIED

    def test_base_class_hooks_abstract(self, grid):
        base = BaseAggregator(
            grid.compiler, grid.registry, grid.directory, grid.ledger,
            np.random.default_rng(0),
        )
        with pytest.raises(NotImplementedError):
            base.compose(None, None, None, None)
        with pytest.raises(NotImplementedError):
            base.select_peers(None, None, None)


class TestHopByHopSemantics:
    def test_selection_proceeds_in_reverse_flow_order(self, grid):
        """Each hop's selector is the previously selected peer."""
        agg = grid.make_aggregator("qsa")
        observed = []
        original = agg.selector.select_hop

        def spy(selecting_peer, **kw):
            observed.append(selecting_peer)
            return original(selecting_peer=selecting_peer, **kw)

        agg.selector.select_hop = spy
        req = None
        res = None
        for _ in range(10):
            observed.clear()
            req = grid.make_request("video-on-demand", duration=1.0)
            res = agg.aggregate(req)
            if res.admitted:
                break
        assert res is not None and res.admitted
        # First selector is the requesting host...
        assert observed[0] == req.peer_id
        # ...then each selected peer selects the next hop: the selector at
        # step i+1 equals the peer chosen at step i (selection order is
        # reverse flow, so compare against reversed peers).
        selection_order_peers = list(reversed(res.peers))
        assert observed[1:] == selection_order_peers[:-1]

    def test_fallback_count_reported(self, grid):
        """With an empty probing budget every hop falls back to random."""
        g = P2PGrid(GridConfig(n_peers=200, seed=14))
        g.probing.config = type(g.probing.config)(
            budget=0, period=1.0, ttl=10.0
        )
        agg = g.make_aggregator("qsa")
        res = None
        for _ in range(10):
            res = agg.aggregate(g.make_request("video-on-demand", duration=1.0))
            if res.admitted:
                break
        assert res is not None
        if res.admitted:
            assert res.random_fallbacks == len(res.peers)

"""Unit tests for figure result containers and remaining edge paths."""

import numpy as np

from repro.experiments.figures import SeriesResult, SweepResult
from tests.experiments.test_figures import winner_at


class TestSweepResult:
    def make(self):
        return SweepResult(
            x_label="rate",
            x_values=[100.0, 200.0],
            ratios={
                "qsa": [0.9, 0.85],
                "random": [0.7, 0.65],
                "fixed": [0.2, 0.1],
            },
        )

    def test_winner_at_each_point(self):
        sweep = self.make()
        assert winner_at(sweep, 0) == "qsa"
        assert winner_at(sweep, 1) == "qsa"

    def test_winner_changes_with_data(self):
        sweep = SweepResult("x", [0.0], {"a": [0.1], "b": [0.9]})
        assert winner_at(sweep, 0) == "b"

    def test_runs_default_empty(self):
        assert self.make().runs == {}


class TestSeriesResult:
    def test_fields_roundtrip(self):
        series = SeriesResult(
            times=np.array([2.0, 4.0]),
            ratios={"qsa": np.array([0.9, np.nan])},
            overall={"qsa": 0.9},
        )
        assert series.overall["qsa"] == 0.9
        assert np.isnan(series.ratios["qsa"][1])


class TestChordRoutingEdges:
    def test_two_node_ring_routes_everywhere(self):
        from repro.lookup.chord import ChordRing

        ring = ChordRing(bits=16, seed=0)
        ring.join(0)
        ring.join(1)
        for i in range(30):
            ring.put(f"k{i}", i)
        for i in range(30):
            for start in (0, 1):
                value, hops = ring.get(f"k{i}", from_peer=start)
                assert value == i
                assert hops <= 2

    def test_lookup_hops_bounded_by_ring_size(self):
        from repro.lookup.chord import ChordRing

        ring = ChordRing(bits=16, seed=5)
        for pid in range(24):
            ring.join(pid)
        ring.put("key", "v")
        for start in range(24):
            _, hops = ring.get("key", from_peer=start)
            assert hops < 24


class TestCanRoutingEdges:
    def test_one_dimensional_can(self):
        from tests.lookup.can import CanNetwork

        net = CanNetwork(dimensions=1, seed=0)
        for pid in range(16):
            net.join(pid)
        for i in range(20):
            net.put(f"k{i}", i)
        for i in range(20):
            value, hops = net.get(f"k{i}", from_peer=i % 16)
            assert value == i
            # 1-d ring: worst case ~N/2 hops.
            assert hops <= 16

    def test_single_node_can(self):
        from tests.lookup.can import CanNetwork

        net = CanNetwork(dimensions=2, seed=0)
        net.join(7)
        net.put("k", "v")
        value, hops = net.get("k", from_peer=7)
        assert value == "v" and hops == 0

    def test_leave_to_empty_then_rejoin(self):
        from tests.lookup.can import CanNetwork

        net = CanNetwork(dimensions=2, seed=0)
        net.join(0)
        net.leave(0)
        assert len(net) == 0
        net.join(1)
        net.put("k", 1)
        assert net.get("k", from_peer=1)[0] == 1


class TestExplainStatusNotes:
    def test_every_status_has_a_note(self):
        from repro.core.aggregation import AggregationStatus
        from repro.core.explain import _STATUS_NOTES

        for status in AggregationStatus:
            assert status in _STATUS_NOTES
            assert _STATUS_NOTES[status]

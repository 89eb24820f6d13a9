"""Unit tests for the random and fixed baseline strategies."""

import numpy as np
import pytest
from benchmarks.ablations import composition_only, selection_only

from repro.core.composition import CompositionError
from repro.core.composition_vec import VectorizedComposer
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.grid import GridConfig, P2PGrid
from repro.services.model import AbstractServicePath
from tests.core.reference_kernels import (
    ConsistencyGraph,
    _viable_nodes,
    random_consistent_path,
)
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e6)
USER = QoSVector(format="final", quality=Interval(1, 3))


def inst(iid, service, fmt_in, fmt_out, cpu=10.0, quality=3):
    return make_instance(
        iid, service,
        qin=QoSVector(format=fmt_in, quality=Interval(quality, 3)),
        qout=QoSVector(format=fmt_out, quality=quality),
        resources=ResourceVector(NAMES, [cpu, cpu]),
        bandwidth=100.0,
    )


PATH = AbstractServicePath("app", ("src", "last"))


def graph_with_dead_end():
    """One 'last' candidate has no consistent predecessor (dead end)."""
    cat = {
        "src": [inst("src/0", "src", "o", "mid")],
        "last": [
            inst("last/ok", "last", "mid", "final"),
            inst("last/dead", "last", "OTHER", "final"),
        ],
    }
    return ConsistencyGraph(PATH, cat, USER, WEIGHTS)


class TestViableNodes:
    def test_source_layer_always_viable(self):
        g = graph_with_dead_end()
        assert (2, 0) in _viable_nodes(g)

    def test_dead_end_excluded(self):
        g = graph_with_dead_end()
        viable = _viable_nodes(g)
        # last/dead (layer 1, index 1) cannot reach the source.
        assert (1, 1) not in viable
        assert (1, 0) in viable
        assert (0, 0) in viable

    def test_unsatisfiable_sink(self):
        cat = {
            "src": [inst("src/0", "src", "o", "mid")],
            "last": [inst("last/0", "last", "mid", "WRONG")],
        }
        g = ConsistencyGraph(PATH, cat, USER, WEIGHTS)
        assert (0, 0) not in _viable_nodes(g)


class TestRandomConsistentPath:
    def test_never_dead_ends(self):
        g = graph_with_dead_end()
        rng = np.random.default_rng(0)
        for _ in range(50):
            path = random_consistent_path(g, rng)
            assert [i.instance_id for i in path.instances] == [
                "src/0", "last/ok",
            ]

    def test_raises_when_nothing_viable(self):
        cat = {
            "src": [inst("src/0", "src", "o", "mid")],
            "last": [inst("last/0", "last", "OTHER", "final")],
        }
        g = ConsistencyGraph(PATH, cat, USER, WEIGHTS)
        with pytest.raises(CompositionError):
            random_consistent_path(g, np.random.default_rng(0))

    def test_samples_spread_over_paths(self):
        cat = {
            "src": [inst(f"src/{j}", "src", "o", "mid") for j in range(4)],
            "last": [inst(f"last/{j}", "last", "mid", "final") for j in range(4)],
        }
        g = ConsistencyGraph(PATH, cat, USER, WEIGHTS)
        rng = np.random.default_rng(1)
        seen = {
            tuple(i.instance_id for i in random_consistent_path(g, rng).instances)
            for _ in range(100)
        }
        assert len(seen) > 8  # 16 possible; random walk reaches most

    def test_ignores_resource_cost(self):
        """The walk picks expensive instances as often as cheap ones."""
        cat = {
            "src": [
                inst("src/cheap", "src", "o", "mid", cpu=1),
                inst("src/costly", "src", "o", "mid", cpu=900),
            ],
            "last": [inst("last/0", "last", "mid", "final")],
        }
        g = ConsistencyGraph(PATH, cat, USER, WEIGHTS)
        rng = np.random.default_rng(2)
        picks = [
            random_consistent_path(g, rng).instances[0].instance_id
            for _ in range(200)
        ]
        costly_share = picks.count("src/costly") / len(picks)
        assert 0.35 < costly_share < 0.65

    def test_total_matches_chosen_instances(self):
        g = graph_with_dead_end()
        path = random_consistent_path(g, np.random.default_rng(0))
        manual = sum(i.resources.values[0] for i in path.instances)
        assert path.total.resources.values[0] == pytest.approx(manual)


class TestAggregatorHeldComposer:
    """random, fixed and both A3 hybrids compose through the composer
    their aggregator holds: one plan per candidate set, kept across
    requests, and no second consistency relation."""

    @pytest.mark.parametrize("make", [
        lambda grid: grid.make_aggregator("random"),
        lambda grid: grid.make_aggregator("fixed"),
        composition_only,
        selection_only,
    ], ids=["random", "fixed", "composition-only", "selection-only"])
    def test_plans_are_held_across_requests(self, make):
        grid = P2PGrid(GridConfig(n_peers=150, seed=5))
        agg = make(grid)
        results = [
            agg.aggregate(grid.make_request("video-on-demand", duration=5.0))
            for _ in range(8)
        ]
        assert any(r.composed is not None for r in results)
        assert isinstance(agg.composer, VectorizedComposer)
        assert agg.composer.weights is grid.composition_weights
        assert 0 < len(agg.composer._plans) < len(results)

    def test_graph_is_not_on_the_production_surface(self):
        import repro.core
        import repro.core.composition

        assert not hasattr(repro.core, "ConsistencyGraph")
        assert not hasattr(repro.core.composition, "ConsistencyGraph")

"""Integration tests for the P2PGrid facade."""

import dataclasses

import numpy as np
import pytest

from repro.cli import build_parser
from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig


@pytest.fixture(scope="module")
def grid():
    return P2PGrid(GridConfig(n_peers=300, seed=42))


class TestConstruction:
    def test_population(self, grid):
        assert grid.directory.n_alive == 300
        assert len(grid.ring) == 300

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GridConfig(n_peers=1)
        with pytest.raises(ValueError):
            GridConfig(capacity_range=(0, 10))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("access_capacity", float("nan")),
            ("access_capacity", float("inf")),
            ("access_capacity", 0.0),
            ("initial_uptime_max", -1.0),
            ("initial_uptime_max", float("nan")),
            ("initial_uptime_max", float("inf")),
            ("capacity_range", (100.0, float("inf"))),
            ("capacity_range", (float("inf"), float("inf"))),
            ("capacity_range", (float("nan"), 1000.0)),
        ],
    )
    def test_population_inputs_rejected_by_field(self, field, value):
        """A population input numpy would only fail on inside the draw
        (or a NaN access link, which passes no bandwidth filter) is
        refused where it enters, with the field named."""
        with pytest.raises(ValueError, match=field):
            GridConfig(**{field: value})

    def test_population_input_edges_accepted(self):
        config = GridConfig(
            n_peers=20, initial_uptime_max=0.0, capacity_range=(5.0, 5.0)
        )
        directory = P2PGrid(config).directory
        ups, _ = directory.uptimes(now=0.0)
        assert (ups == 0.0).all()
        assert (directory.store.capacity[directory.alive_rows()] == 5.0).all()

    def test_config_surface(self):
        """Every way to configure a run, pinned: a new ``GridConfig``
        field or ``repro run`` flag shows up as a diff here, not as a
        default nobody notices."""
        assert sorted(f.name for f in dataclasses.fields(GridConfig)) == [
            "access_capacity", "applications", "capacity_range", "catalog",
            "chord_bits", "churn", "faults", "initial_uptime_max",
            "n_peers", "probing", "recovery", "resource_names", "sanitize",
            "seed", "telemetry", "telemetry_capacity",
        ]  # 16: Chord is the one substrate, the bus the one event log
        commands = next(
            a for a in build_parser()._actions if a.dest == "command"
        ).choices
        assert sorted(
            s for a in commands["run"]._actions for s in a.option_strings
        ) == [
            "--algorithm", "--churn", "--faults", "--help", "--horizon",
            "--no-uptime-filter", "--rate", "--sanitize", "--seed",
            "--telemetry", "-h",
        ]  # 11: no ``--backend``

    def test_config_applications_used(self):
        from repro.services.applications import ApplicationTemplate

        apps = (ApplicationTemplate("custom", ("alpha", "beta")),)
        g = P2PGrid(GridConfig(n_peers=100, seed=1, applications=apps))
        assert [a.name for a in g.applications] == ["custom"]
        assert g.catalog.by_service.get("alpha", [])

    def test_explicit_applications_override_config(self):
        from repro.services.applications import ApplicationTemplate

        cfg_apps = (ApplicationTemplate("from-config", ("s1x", "s2x")),)
        arg_apps = [ApplicationTemplate("from-arg", ("t1x", "t2x"))]
        g = P2PGrid(
            GridConfig(n_peers=100, seed=1, applications=cfg_apps),
            applications=arg_apps,
        )
        assert [a.name for a in g.applications] == ["from-arg"]

    def test_capacities_within_range(self, grid):
        for peer in grid.directory.alive_peers():
            assert 100.0 <= peer.capacity.values[0] <= 1000.0
            # Both dimensions share the scale.
            assert peer.capacity.values[0] == peer.capacity.values[1]

    def test_initial_uptimes_warm(self, grid):
        ups, _ = grid.directory.uptimes(now=0.0)
        assert np.all(ups >= 0)
        assert np.all(ups <= 120.0)
        assert np.std(ups) > 0  # not all identical

    def test_catalog_registered_in_ring(self, grid):
        app = grid.applications[0]
        specs, _ = grid.registry.discover_service(app.services[0], from_peer=0)
        assert specs

    def test_weights_sum_to_one(self, grid):
        w = grid.composition_weights
        assert np.isclose(w.weights.sum() + w.bandwidth_weight, 1.0)
        p = grid.phi_weights
        assert np.isclose(p.weights.sum() + p.bandwidth_weight, 1.0)


class TestRequests:
    def test_make_request_defaults(self, grid):
        r = grid.make_request("video-on-demand")
        assert r.application == "video-on-demand"
        assert grid.directory.is_alive(r.peer_id)

    def test_request_ids_increment(self, grid):
        a = grid.make_request("video-on-demand")
        b = grid.make_request("video-on-demand")
        assert b.request_id == a.request_id + 1


class TestAggregatorFactory:
    def test_known_names(self, grid):
        for name in ("qsa", "random", "fixed"):
            agg = grid.make_aggregator(name)
            assert agg.name == name

    def test_unknown_name(self, grid):
        with pytest.raises(ValueError):
            grid.make_aggregator("bogus")

    def test_qsa_options(self, grid):
        agg = grid.make_aggregator("qsa", uptime_filter=False)
        assert not agg.selector.uptime_filter
        # An option the algorithm does not take is an error, not a no-op.
        with pytest.raises(TypeError, match="composition_method"):
            grid.make_aggregator("qsa", composition_method="dijkstra")
        with pytest.raises(TypeError, match="uptime_filter"):
            grid.make_aggregator("random", uptime_filter=False)


class TestChurnIntegration:
    def test_departure_cleans_everything(self):
        g = P2PGrid(GridConfig(
            n_peers=100, seed=1, churn=ChurnConfig(rate_per_min=0.0)
        ))
        # Note: churn with rate 0 is disabled; drive events manually.
        from repro.network.churn import ChurnProcess
        churn = ChurnProcess(
            g.sim, g.directory, ChurnConfig(rate_per_min=1.0),
            spawn_peer=g._spawn_peer_churn,
            on_departure=g._on_peer_departure,
            rng=np.random.default_rng(0),
        )
        pid = churn.depart()
        assert pid is not None
        assert not g.directory.is_alive(pid)
        assert pid not in g.ring
        assert g.catalog.hosted_instances(pid) == ()
        for iid in g.catalog.instances:
            assert pid not in g.catalog.hosts(iid)

    def test_arrival_provisions_everything(self):
        g = P2PGrid(GridConfig(n_peers=100, seed=1))
        pid = g._spawn_peer_churn(now=0.0)
        assert g.directory.is_alive(pid)
        assert pid in g.ring
        hosted = g.catalog.hosted_instances(pid)
        for iid in hosted:
            hosts, _ = g.registry.discover_hosts(iid, from_peer=0)
            assert pid in hosts

    def test_sessions_fail_on_departure(self):
        g = P2PGrid(GridConfig(n_peers=100, seed=2))
        agg = g.make_aggregator("qsa")
        outcomes = []
        g.telemetry.bus.subscribe("session.resolved", outcomes.append)
        # Admit a long session, then kill one of its peers.
        res = None
        for _ in range(10):
            req = g.make_request("video-on-demand", duration=100.0)
            res = agg.aggregate(req)
            if res.admitted:
                break
        assert res is not None and res.admitted
        victim = res.peers[0]
        g._on_peer_departure(victim)
        g.directory.depart(victim, g.sim.now)
        assert len(outcomes) == 1
        assert outcomes[0].state == "failed"
        assert outcomes[0].session_id == res.session.session_id

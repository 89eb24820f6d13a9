"""Unit tests for the Chord-backed service registry."""

import numpy as np
import pytest

from repro.lookup.chord import ChordRing
from repro.lookup.registry import ServiceRegistry
from repro.services.applications import default_applications
from repro.services.catalog import CatalogConfig, generate_catalog, hosts_with
from tests.lookup.reference_fingers import get_local


@pytest.fixture()
def setup():
    rng = np.random.default_rng(0)
    apps = default_applications()[:3]
    peer_ids = list(range(200))
    catalog = generate_catalog(
        apps,
        peer_ids,
        rng,
        CatalogConfig(instances_per_service=(4, 6), replicas_per_instance=(5, 10)),
    )
    ring = ChordRing(bits=24, seed=1)
    for pid in peer_ids:
        ring.join(pid)
    registry = ServiceRegistry(ring, catalog)
    return apps, catalog, ring, registry


class TestDiscovery:
    def test_discover_service_returns_all_instances(self, setup):
        apps, catalog, ring, registry = setup
        service = apps[0].services[0]
        specs, hops = registry.discover_service(service, from_peer=5)
        assert {s.instance_id for s in specs} == {
            s.instance_id for s in catalog.by_service.get(service, [])
        }
        assert hops >= 0

    def test_discover_unknown_service_empty(self, setup):
        _, _, _, registry = setup
        specs, _ = registry.discover_service("no-such-service", from_peer=0)
        assert specs == ()

    def test_discover_hosts_matches_catalog(self, setup):
        apps, catalog, _, registry = setup
        iid = next(iter(catalog.instances))
        hosts, _ = registry.discover_hosts(iid, from_peer=3)
        assert hosts == catalog.hosts(iid) == tuple(sorted(set(hosts)))

    def test_discover_path_accumulates_hops(self, setup):
        apps, _, _, registry = setup
        services = apps[1].services
        candidates, hops = registry.discover_path_candidates(services, from_peer=9)
        assert set(candidates) == set(services)
        assert hops >= 0
        assert registry.n_routed_discoveries == len(services)


def catalog_joins(catalog, pid, iids):
    """What ``catalog.assign_new_peer`` leaves, for chosen instances: the
    catalog learns of an arrival before the registry does."""
    for iid in iids:
        catalog.replicas[iid] = hosts_with(catalog.replicas[iid], pid)
    catalog.hosted_by[pid] = tuple(sorted(iids))


class TestChurnMaintenance:
    def test_departed_peer_removed_from_host_records(self, setup):
        apps, catalog, ring, registry = setup
        # Find a peer hosting something.
        pid = next(iter(catalog.hosted_by))
        hosted = set(catalog.hosted_instances(pid))
        assert hosted
        catalog.remove_peer(pid)
        registry.peer_departed(pid, hosted)
        for iid in hosted:
            hosts, _ = registry.discover_hosts(iid, from_peer=0)
            assert pid not in hosts
        assert pid not in ring

    def test_joined_peer_added_to_host_records(self, setup):
        apps, catalog, ring, registry = setup
        new_pid = 10_000
        some_iids = list(catalog.instances)[:3]
        catalog_joins(catalog, new_pid, some_iids)
        registry.peer_joined(new_pid, some_iids)
        assert new_pid in ring
        for iid in some_iids:
            hosts, _ = registry.discover_hosts(iid, from_peer=0)
            assert new_pid in hosts

    def test_records_survive_heavy_ring_churn(self, setup):
        apps, catalog, ring, registry = setup
        service = apps[0].services[0]
        before, _ = registry.discover_service(service, from_peer=150)
        # Cycle half of the membership (peers without replicas for
        # simplicity: use ids above the catalog population).
        for pid in range(0, 80):
            hosted = set(catalog.hosted_instances(pid))
            catalog.remove_peer(pid)
            registry.peer_departed(pid, hosted)
        after, _ = registry.discover_service(service, from_peer=150)
        assert {s.instance_id for s in after} == {s.instance_id for s in before}

    def test_a_record_the_catalog_does_not_show_raises(self, setup):
        _, catalog, ring, registry = setup
        pid = next(iter(catalog.hosted_by))
        hosted = catalog.hosted_instances(pid)
        with pytest.raises(ValueError, match="departed"):
            registry.peer_departed(pid, hosted)  # the catalog still lists it
        with pytest.raises(ValueError, match="joined"):
            registry.peer_joined(10_000, hosted[:1])  # not in the catalog
        with pytest.raises(ValueError, match="joined"):
            registry.peer_joined(10_001, ["no-such-instance"])


class TestRegistryRecordCache:
    """The registry keeps no record cache: repeated reads route again."""

    def test_accounting_invariant(self, setup):
        apps, catalog, ring, registry = setup
        calls = total_hops = 0
        for app in apps:
            for service in app.services:
                for _ in range(2):  # a repeat costs a second routed read
                    _, hops = registry.discover_service(service, from_peer=7)
                    calls += 1
                    total_hops += hops
        for iid in list(catalog.instances)[:10]:
            _, hops = registry.discover_hosts(iid, from_peer=3)
            calls += 1
            total_hops += hops
        assert registry.n_routed_discoveries == ring.n_lookups == calls
        assert registry.discovery_hops == ring.total_hops == total_hops
        assert registry.n_cached_discoveries == 0

    def test_departure_invalidates_host_set(self, setup):
        _, catalog, _, registry = setup
        iid = next(iter(catalog.instances))
        hosts, _ = registry.discover_hosts(iid, from_peer=2)
        victim = hosts[0]
        hosted = catalog.hosted_instances(victim)
        catalog.remove_peer(victim)
        registry.peer_departed(victim, hosted)
        after, _ = registry.discover_hosts(iid, from_peer=2)
        assert after == hosts[1:]

    def test_join_invalidates_host_set(self, setup):
        _, catalog, _, registry = setup
        iid = next(iter(catalog.instances))
        hosts, _ = registry.discover_hosts(iid, from_peer=2)
        newcomer = 10_000
        catalog_joins(catalog, newcomer, [iid])
        registry.peer_joined(newcomer, [iid])
        after, _ = registry.discover_hosts(iid, from_peer=2)
        assert after == hosts + (newcomer,)


def test_churned_ring_holds_the_catalogs_own_records():
    """After a churned run every instance record on the ring is the
    catalog's tuple itself, not an equal copy: the catalog rebuilds a
    record once per event and the registry publishes that object."""
    from repro.grid import GridConfig, P2PGrid
    from repro.network.churn import ChurnConfig
    from repro.probing.prober import ProbingConfig

    grid = P2PGrid(GridConfig(
        n_peers=1000, probing=ProbingConfig(budget=10),
        churn=ChurnConfig(rate_per_min=10.0), seed=0,
    ))
    grid.sim.run(until=10.0)
    assert grid.churn.n_arrivals > 0 and grid.churn.n_departures > 0
    prefix = ServiceRegistry.INSTANCE_PREFIX
    for iid, record in grid.catalog.replicas.items():
        assert get_local(grid.ring, prefix + iid) is record, iid

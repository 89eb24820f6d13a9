"""Unit tests for the cache primitives, and for the registry having none.

Covers the :mod:`repro.lookup.cache` primitives (bounded LRU with
generation invalidation, plain-dict trimming) that the QCS composition
memos use, and pins what the deleted registry record cache used to
guarantee by invalidation and now holds trivially: every discovery is
one routed read of the current record.
"""

import numpy as np
import pytest

from repro.lookup.cache import BoundedCache, CacheStats, trim_mapping
from repro.lookup.chord import ChordRing
from repro.lookup.registry import ServiceRegistry
from repro.services.applications import default_applications
from repro.services.catalog import CatalogConfig, generate_catalog


class TestBoundedCache:
    def test_roundtrip(self):
        cache = BoundedCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert len(cache) == 1 and "a" in cache

    def test_cap_evicts_oldest(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_get_refreshes_lru_position(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # now "b" is the least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_put_existing_key_does_not_evict(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)   # overwrite, still 2 entries
        assert len(cache) == 2
        assert cache.get("a") == 10 and cache.get("b") == 2

    def test_generation_clears_wholesale(self):
        cache = BoundedCache(8)
        cache.check_generation(0)
        cache.put("a", 1)
        cache.check_generation(0)
        assert cache.get("a") == 1      # same generation: survives
        cache.check_generation(1)
        assert cache.get("a") is None   # bumped: gone
        assert len(cache) == 0

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedCache(0)

    def test_stats_are_caller_driven(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.get("a")
        assert cache.stats.total == 0   # get() itself never counts
        cache.stats.hits += 1
        assert cache.stats.hit_rate == 1.0


class TestCacheStats:
    def test_empty_rate(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict(self):
        s = CacheStats()
        s.hits, s.misses = 3, 1
        assert s.as_dict() == {"hits": 3, "misses": 1, "hit_rate": 0.75}


class TestTrimMapping:
    def test_noop_under_cap(self):
        d = {i: i for i in range(3)}
        assert trim_mapping(d, 5) == 0
        assert len(d) == 3

    def test_evicts_oldest_inserted(self):
        d = {i: i for i in range(6)}
        assert trim_mapping(d, 4) == 2
        assert list(d) == [2, 3, 4, 5]


@pytest.fixture()
def setup():
    rng = np.random.default_rng(0)
    apps = default_applications()[:3]
    peer_ids = list(range(150))
    catalog = generate_catalog(
        apps,
        peer_ids,
        rng,
        CatalogConfig(instances_per_service=(3, 5), replicas_per_instance=(4, 8)),
    )
    ring = ChordRing(bits=24, seed=1)
    for pid in peer_ids:
        ring.join(pid)
    registry = ServiceRegistry(ring, catalog)
    return apps, catalog, ring, registry


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
        registry.peer_departed(victim, [iid])
        after, _ = registry.discover_hosts(iid, from_peer=2)
        assert after == hosts[1:]

    def test_join_invalidates_host_set(self, setup):
        _, catalog, _, registry = setup
        iid = next(iter(catalog.instances))
        hosts, _ = registry.discover_hosts(iid, from_peer=2)
        newcomer = 10_000
        registry.peer_joined(newcomer, [iid])
        after, _ = registry.discover_hosts(iid, from_peer=2)
        assert after == hosts + (newcomer,)

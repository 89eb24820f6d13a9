"""Unit tests for catalog generation and the mutable replica map."""

import numpy as np
import pytest

from repro.core.qos import Interval
from repro.services.applications import ApplicationTemplate, default_applications
from repro.services.catalog import CatalogConfig, generate_catalog
from tests.services import reference_catalog


@pytest.fixture()
def catalog():
    return generate_catalog(
        default_applications(),
        peer_ids=range(500),
        rng=np.random.default_rng(0),
        config=CatalogConfig(
            instances_per_service=(10, 20), replicas_per_instance=(40, 80)
        ),
    )


class TestConfig:
    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            CatalogConfig(instances_per_service=(0, 5))
        with pytest.raises(ValueError):
            CatalogConfig(replicas_per_instance=(10, 5))

    def test_bad_quality_weights(self):
        with pytest.raises(ValueError):
            CatalogConfig(quality_weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            CatalogConfig(quality_weights=(0.5, 0.4, 0.2))


class TestGeneration:
    def test_instances_per_service_in_range(self, catalog):
        for service, instances in catalog.by_service.items():
            assert 10 <= len(instances) <= 20, service

    def test_replicas_per_instance_in_range(self, catalog):
        for iid in catalog.instances:
            assert 40 <= len(catalog.hosts(iid)) <= 80, iid

    def test_every_service_of_every_app_covered(self, catalog):
        for app in catalog.applications:
            for service in app.services:
                assert catalog.by_service.get(service, [])

    def test_instance_qos_vocabulary(self, catalog):
        """Formats come from the owning app's interface vocabularies and
        input quality floors equal output quality."""
        for app in catalog.applications:
            for k, service in enumerate(app.services):
                in_formats = set(app.interface_formats(k - 1))
                out_formats = set(app.interface_formats(k))
                for inst in catalog.by_service.get(service, []):
                    assert inst.qin["format"] in in_formats
                    assert inst.qout["format"] in out_formats
                    q = inst.qout["quality"]
                    assert inst.qin["quality"] == Interval(q, 3)

    def test_quality_distribution_biased_high(self, catalog):
        qualities = [i.qout["quality"] for i in catalog.instances.values()]
        share3 = sum(1 for q in qualities if q == 3) / len(qualities)
        assert 0.4 < share3 < 0.6  # configured weight 0.5

    def test_hosted_by_consistent_with_replicas(self, catalog):
        for iid, peers in catalog.replicas.items():
            for pid in peers:
                assert iid in catalog.hosted_instances(pid)

    def test_requires_peers(self):
        with pytest.raises(ValueError):
            generate_catalog(
                default_applications()[:1], [], np.random.default_rng(0)
            )

    def test_fields_are_plain_python_objects(self):
        """No numpy scalar reaches an instance, and every host record is
        built from the caller's own peer-id objects, ascending whatever
        order they came in."""
        peer_ids = [10**6 + i for i in range(300)][::-1]
        ids = {id(p) for p in peer_ids}
        catalog = generate_catalog(
            default_applications()[:2], peer_ids, np.random.default_rng(4)
        )
        for inst in catalog.instances.values():
            assert type(inst.bandwidth) is float
            assert type(inst.qout["quality"]) is int
            assert type(inst.qin["format"]) is str
            assert type(inst.qout["format"]) is str
            assert inst.resources.values.dtype == np.float64
            hosts = catalog.hosts(inst.instance_id)
            assert list(hosts) == sorted(hosts)
            assert all(type(p) is int and id(p) in ids for p in hosts)

    def test_replicas_clip_to_the_population(self):
        catalog = generate_catalog(
            default_applications()[:2], range(30), np.random.default_rng(2),
            CatalogConfig(replicas_per_instance=(20, 80)),
        )
        sizes = {len(hosts) for hosts in catalog.replicas.values()}
        assert 30 in sizes and sizes <= set(range(20, 31))
        for hosts in catalog.replicas.values():
            assert len(set(hosts)) == len(hosts)

    def test_shared_service_names_rejected(self):
        """Instance ids are ``<service>/<j>``, so a service shared by two
        applications used to have the second application's instances
        overwrite the first's and mix both vocabularies in one candidate
        list (the scalar generator kept in ``reference_catalog`` still
        does)."""
        apps = (
            ApplicationTemplate("a", ("shared", "x1")),
            ApplicationTemplate("b", ("shared", "y1")),
        )
        merged = reference_catalog.generate_catalog(
            apps, range(200), np.random.default_rng(0)
        )
        owners = {
            inst.qin["format"].split("/")[0]
            for inst in merged.by_service.get("shared", [])
        }
        assert owners == {"a", "b"}
        with pytest.raises(ValueError, match="'shared'"):
            generate_catalog(apps, range(200), np.random.default_rng(0))

    def test_reproducible(self):
        a = generate_catalog(
            default_applications()[:2], range(100), np.random.default_rng(9)
        )
        b = generate_catalog(
            default_applications()[:2], range(100), np.random.default_rng(9)
        )
        assert set(a.instances) == set(b.instances)
        for iid in a.instances:
            assert a.instances[iid].qout == b.instances[iid].qout
            assert a.replicas[iid] == b.replicas[iid]


class TestChurnMutation:
    def test_remove_peer_clears_replicas(self, catalog):
        pid = next(iter(catalog.hosted_by))
        hosted = set(catalog.hosted_instances(pid))
        catalog.remove_peer(pid)
        assert catalog.hosted_instances(pid) == ()
        for iid in hosted:
            assert pid not in catalog.hosts(iid)

    def test_remove_unknown_peer_noop(self, catalog):
        catalog.remove_peer(10**9)  # must not raise

    def test_assign_new_peer_typical_share(self, catalog):
        mean = catalog.replicas_per_peer
        rng = np.random.default_rng(1)
        counts = []
        for k in range(30):
            pid = 10_000 + k
            catalog.assign_new_peer(pid, rng)
            counts.append(len(catalog.hosted_instances(pid)))
            for iid in catalog.hosted_instances(pid):
                assert pid in catalog.hosts(iid)
        assert abs(np.mean(counts) - mean) < mean  # same order of magnitude

    def test_assign_existing_peer_rejected(self, catalog):
        pid = next(iter(catalog.hosted_by))
        with pytest.raises(ValueError):
            catalog.assign_new_peer(pid, np.random.default_rng(0))

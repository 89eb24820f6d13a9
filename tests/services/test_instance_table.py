"""The catalog as one instance table.

* The table build against the object build it replaced
  (``object_catalog``): on seeds 0-4 and three shapes, the same ids,
  ``Qin`` / ``Qout``, ``R`` / ``b`` bits, host records, ``hosted_by``
  and DHT placement -- the registry still stores the catalog's own host
  tuples.
* Block admission into the QCS index scores every instance exactly as
  ``WeightProfile.score`` does, bit for bit, over a full
  ``compose-cold``-shaped catalog: at ``m = 2`` a matrix-vector score
  rounds differently on a sixth of the rows, which would flip argmin
  ties.
* The build's footprint, as a count: live ``tracemalloc`` blocks per
  instance after ``generate_catalog`` at the ``compose-cold`` shape.
* ``InstanceTable`` / ``ServiceInstance`` view semantics.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.composition_vec import ConsistencyIndex
from repro.core.qos import QoSVector
from repro.core.resources import ResourceTuple, ResourceVector, WeightProfile
from repro.lookup.chord import ChordRing
from repro.lookup.registry import ServiceRegistry
from repro.services.applications import ApplicationTemplate, default_applications
from repro.services.catalog import CatalogConfig, generate_catalog
from repro.services.model import InstanceTable, ServiceInstance
from repro.services.translator import AnalyticTranslator
from tests.lookup.reference_fingers import get_local, records
from tests.services import object_catalog
from tests.services.reference_catalog import make_instance


def cold_apps(n):
    """The ``compose-cold`` benchmark's applications: 5 services, 8
    formats per interface."""
    return tuple(
        ApplicationTemplate(
            f"cold{a:03d}",
            tuple(f"cold{a:03d}-s{k}" for k in range(5)),
            formats_per_interface=8,
        )
        for a in range(n)
    )


COLD_CONFIG = CatalogConfig(
    instances_per_service=(60, 70), replicas_per_instance=(3, 6)
)

#: name -> (applications, peer ids, catalog config)
SHAPES = {
    "default": (default_applications(), tuple(range(1000)), CatalogConfig()),
    "compose-cold": (cold_apps(20), tuple(range(1000)), COLD_CONFIG),
    # More replicas wanted than half the peers: the complement path.
    "clipped": (
        default_applications(),
        tuple(range(50)),
        CatalogConfig(replicas_per_instance=(40, 80)),
    ),
}


def _ring(peers):
    ring = ChordRing(bits=32, seed=0)
    for pid in peers:
        ring.join(pid)
    return ring


def _stores(ring):
    """Peer -> the keys its node stores, in store order."""
    return {pid: list(records(ring, pid)) for pid in ring.peers()}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_table_build_matches_the_object_build(shape, seed):
    apps, peers, config = SHAPES[shape]
    table = generate_catalog(apps, peers, np.random.default_rng(seed), config)
    objects = object_catalog.generate_catalog(
        apps, peers, np.random.default_rng(seed), config
    )
    assert list(table.instances) == list(objects.instances)
    for iid, inst in table.instances.items():
        ref = objects.instances[iid]
        assert inst == ref
        assert (inst.instance_id, inst.service) == (ref.instance_id, ref.service)
        for mine, theirs in ((inst.qin, ref.qin), (inst.qout, ref.qout)):
            assert list(mine.items()) == list(theirs.items())
            assert [type(v) for v in mine.values()] == [
                type(v) for v in theirs.values()
            ]
        assert inst.resources.names == ref.resources.names
        assert inst.resources.values.tobytes() == ref.resources.values.tobytes()
        assert inst.bandwidth.hex() == ref.bandwidth.hex()
        assert table.replicas[iid] == objects.replicas[iid]
    assert [
        (s, [i.instance_id for i in v]) for s, v in table.by_service.items()
    ] == [
        (s, [i.instance_id for i in v]) for s, v in objects.by_service.items()
    ]
    assert {pid: set(iids) for pid, iids in table.hosted_by.items()} == (
        objects.hosted_by
    )

    ring = _ring(peers)
    ServiceRegistry(ring, table)
    reference = _ring(peers)
    object_catalog.populate(reference, objects)
    assert _stores(ring) == _stores(reference)
    assert ring._key_ids == reference._key_ids
    for iid, hosts in table.replicas.items():
        assert get_local(ring, ServiceRegistry.INSTANCE_PREFIX + iid) is hosts
    for service, instances in table.by_service.items():
        record = get_local(ring, ServiceRegistry.SERVICE_PREFIX + service)
        assert record == tuple(instances)


def test_block_admission_scores_are_weight_profile_scores_bit_for_bit():
    translator = AnalyticTranslator()
    catalog = generate_catalog(
        cold_apps(150), range(1000), np.random.default_rng(0), COLD_CONFIG,
        translator,
    )
    names = translator.resource_names
    weights = WeightProfile.uniform(
        names,
        [translator.max_resource_demand()] * len(names),
        translator.max_bandwidth_demand(),
    )
    index = ConsistencyIndex(weights)
    n = 0
    for service, instances in catalog.by_service.items():
        uni, _, rows = index.admit_candidates(service, tuple(instances))
        assert [float(s).hex() for s in uni.scores[rows]] == [
            weights.score(ResourceTuple(i.resources, i.bandwidth)).hex()
            for i in instances
        ]
        n += len(rows)
    assert n == catalog.n_instances > 45_000


def test_catalog_build_holds_at_most_six_blocks_per_instance():
    """The object build held 10.8 blocks per instance (Python 3.11)."""
    apps = cold_apps(150)
    peers = list(range(1000))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        catalog = generate_catalog(
            apps, peers, np.random.default_rng(0), COLD_CONFIG
        )
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    blocks = sum(s.count_diff for s in after.compare_to(before, "filename"))
    assert catalog.n_instances > 45_000
    assert blocks <= 6 * catalog.n_instances, blocks / catalog.n_instances


# -- the table and its views ---------------------------------------------------
NAMES = ("cpu", "memory")


def _inst(iid, service, qin, qout, r=(1.0, 2.0), b=3.0):
    return make_instance(
        iid, service, QoSVector(qin), QoSVector(qout),
        ResourceVector(NAMES, r), b,
    )


class TestViews:
    def test_constructor_builds_a_one_row_table(self):
        qin, qout = QoSVector(format="a"), QoSVector(format="b", quality=2)
        inst = make_instance(
            "s/0", "s", qin, qout, ResourceVector(NAMES, [1, 2]), 5.0
        )
        assert inst.table.ids == ["s/0"] and inst.row == 0
        assert inst.qin is qin and inst.qout is qout
        assert inst.instance_id == "s/0" and inst.service == "s"
        assert type(inst.bandwidth) is float and inst.bandwidth == 5.0

    def test_columns_are_read_only(self):
        inst = _inst("s/0", "s", {"format": "a"}, {"format": "b"})
        with pytest.raises(ValueError):
            inst.resources.values[0] = 9.0
        with pytest.raises(AttributeError):
            inst.instance_id = "t/0"

    def test_catalog_views_share_one_table_and_their_vectors(self):
        catalog = generate_catalog(
            default_applications()[:2], range(100), np.random.default_rng(3)
        )
        tables = {id(inst.table) for inst in catalog.instances.values()}
        assert tables == {id(catalog.table)}
        views = catalog.table.views()
        for inst in catalog.instances.values():
            assert inst.qin is inst.qin
            assert views[inst.row] == inst

    def test_equality_is_by_value(self):
        a = _inst("s/0", "s", {"format": "a"}, {"format": "b"})
        b = _inst("s/0", "s", {"format": "a"}, {"format": "b"})
        c = _inst("s/0", "s", {"format": "a"}, {"format": "b"}, b=4.0)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_bad_columns_rejected(self):
        def table(qin=((0,),), resources=((1.0, 2.0),), bandwidth=(1.0,)):
            return InstanceTable(
                ["s/0"], [("s", 1)], ["a"], ("format",), qin, (), [[]],
                NAMES, resources, bandwidth,
            )

        table()
        with pytest.raises(ValueError, match="negative bandwidth"):
            table(bandwidth=(-1.0,))
        with pytest.raises(ValueError, match="negative resource"):
            table(resources=((1.0, -2.0),))
        with pytest.raises(ValueError, match="vocabulary"):
            table(qin=((1,),))
        with pytest.raises(ValueError, match="shape"):
            table(resources=((1.0,),))

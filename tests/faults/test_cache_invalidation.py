"""Model-based test: a discovered host record is never stale.

Discovery holds no cache, so there is nothing to invalidate; what must
hold instead is that the one host record per instance -- an immutable
ascending tuple shared by the catalog and the DHT -- tracks membership
exactly.  Hypothesis drives randomized depart / join / read
interleavings against a dict-of-sets model: after every step
``discover_hosts`` is an ascending tuple equal to the model, a departed
peer never appears in it, a joined peer appears immediately, and the
catalog and the registry agree.

Run under ``HYPOTHESIS_PROFILE=chaos`` for the CI chaos budget.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lookup.chord import ChordRing
from repro.lookup.registry import ServiceRegistry
from repro.services.applications import default_applications
from repro.services.catalog import CatalogConfig, generate_catalog
from tests.lookup.reference_fingers import get_local

# op = (kind, a, b): kind 0 = depart a host, 1 = rejoin, 2 = discover
registry_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


@settings(deadline=None)
@given(ops=registry_ops)
def test_host_sets_never_stale_under_churn(ops):
    rng = np.random.default_rng(0)
    apps = default_applications()[:2]
    core = list(range(50))          # never depart: the ring stays alive
    hosts_pool = list(range(50, 90))
    catalog = generate_catalog(
        apps,
        core + hosts_pool,
        rng,
        CatalogConfig(instances_per_service=(2, 3), replicas_per_instance=(3, 6)),
    )
    ring = ChordRing(bits=24, seed=2)
    for pid in core + hosts_pool:
        ring.join(pid)
    registry = ServiceRegistry(ring, catalog)

    # One record per instance, held once: the ring stores the catalog's
    # own tuple, not a copy.
    for iid, record in catalog.replicas.items():
        assert get_local(ring, registry.INSTANCE_PREFIX + iid) is record

    model = {iid: set(hosts) for iid, hosts in catalog.replicas.items()}
    iids = sorted(model)

    def check(iid, from_peer):
        found, _ = registry.discover_hosts(iid, from_peer)
        assert isinstance(found, tuple)
        assert found == tuple(sorted(model[iid]))  # ascending, no repeats
        assert found == catalog.hosts(iid)

    departed = []
    for kind, a, b in ops:
        from_peer = core[b % len(core)]
        if kind == 0:
            pool = [p for p in sorted(catalog.hosted_by) if p not in core]
            if not pool:
                continue
            pid = pool[a % len(pool)]
            hosted = catalog.hosted_instances(pid)
            catalog.remove_peer(pid)
            registry.peer_departed(pid, hosted)
            for iid in hosted:
                model[iid].discard(pid)
            departed.append((pid, hosted))
            touched = hosted
        elif kind == 1 and departed:
            pid, hosted = departed.pop(a % len(departed))
            catalog.assign_new_peer(pid, rng)  # a fresh share of replicas
            hosted = catalog.hosted_instances(pid)
            registry.peer_joined(pid, hosted)
            for iid in hosted:
                model[iid].add(pid)
            touched = hosted
        else:
            touched = (iids[a % len(iids)],)
        for iid in touched:
            check(iid, from_peer)
    for iid in iids:
        check(iid, core[0])
    assert registry.n_cached_discoveries == 0

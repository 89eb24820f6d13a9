"""The object-per-instance catalog build, kept as the oracle of the table.

``generate_catalog`` used to draw each service's columns as blocks and
then build one ``ServiceInstance`` per row: interned ``QoSVector`` /
``Interval`` objects, a ``ResourceVector`` per ``R`` row, a host tuple
per instance, ``hosted_by`` by a loop over every replica, and the
registry placed each record with one ``ChordRing.put``.  That loop is
transcribed here unchanged (only the catalog object around it is
replaced by :class:`ObjectCatalog`), so that
``tests/services/test_instance_table.py`` can hold the table build to
it field for field: the same draws, in the same order, must give the
same ids, ``Qin`` / ``Qout``, ``R`` / ``b`` bits, host records,
``hosted_by`` and DHT placement.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector
from repro.lookup.registry import ServiceRegistry
from repro.services.applications import ApplicationTemplate
from repro.services.catalog import CatalogConfig, _distinct_rows
from repro.services.model import ServiceInstance
from repro.services.translator import AnalyticTranslator
from tests.services.reference_catalog import make_instance


def vector_rows(names: Sequence[str], block: np.ndarray) -> List[ResourceVector]:
    """One vector per row of the ``(n, len(names))`` array ``block``
    (``ResourceVector.rows``, moved here unchanged).

    The constructor's shape and non-negativity checks run once on the
    whole block; every vector's ``values`` is a row of one private
    copy of it, so callers cannot alias any of them either.
    """
    names = tuple(names)
    values = np.asarray(block).astype(np.float64)
    if values.ndim != 2 or values.shape[1] != len(names):
        raise ValueError(
            f"{len(names)} names but a block of shape {values.shape}"
        )
    if (values < 0).any():
        raise ValueError(f"negative resource amounts: {values.min()}")
    out: List[ResourceVector] = []
    for row in values:
        vector = ResourceVector.__new__(ResourceVector)
        vector.names = names
        vector.values = row
        out.append(vector)
    return out


@dataclass
class ObjectCatalog:
    """What the object build produced, field by field."""

    instances: Dict[str, ServiceInstance]
    replicas: Dict[str, Tuple[int, ...]]
    by_service: Dict[str, List[ServiceInstance]]
    hosted_by: Dict[int, Set[str]]


def generate_catalog(
    applications: Sequence[ApplicationTemplate],
    peer_ids: Sequence[int],
    rng: np.random.Generator,
    config: CatalogConfig | None = None,
    translator: AnalyticTranslator | None = None,
) -> ObjectCatalog:
    config = config or CatalogConfig()
    translator = translator or AnalyticTranslator()
    peers = sorted(peer_ids)
    if not peers:
        raise ValueError("need at least one peer to host replicas")
    services = [service for app in applications for service in app.services]
    shared = sorted(s for s, n in Counter(services).items() if n > 1)
    if shared:
        raise ValueError(f"service name(s) {shared} appear more than once")

    instances: Dict[str, ServiceInstance] = {}
    replicas: Dict[str, Tuple[int, ...]] = {}
    ilo, ihi = config.instances_per_service
    rlo, rhi = config.replicas_per_instance
    levels = np.asarray(config.quality_levels)
    quality_cdf = np.cumsum(config.quality_weights)
    quality_cdf /= quality_cdf[-1]
    max_quality = max(config.quality_levels)
    qins: Dict[Tuple[str, int], QoSVector] = {}
    qouts: Dict[Tuple[str, int], QoSVector] = {}
    n_instances = iter(rng.integers(ilo, ihi + 1, size=len(services)).tolist())

    for app in applications:
        for k, service in enumerate(app.services):
            in_formats = app.interface_formats(k - 1)
            out_formats = app.interface_formats(k)
            n = next(n_instances)
            qualities = levels[quality_cdf.searchsorted(rng.random(n), side="right")]
            in_index = rng.integers(len(in_formats), size=n)
            out_index = rng.integers(len(out_formats), size=n)
            resources = vector_rows(
                translator.resource_names, translator.resources_for(qualities, rng)
            )
            bandwidths = translator.bandwidth_for(qualities, rng)
            n_hosts = np.minimum(rng.integers(rlo, rhi + 1, size=n), len(peers))
            hosts = _distinct_rows(n_hosts, len(peers), rng)
            width = hosts.shape[1]
            for j, (quality, i_in, i_out, r, b, n_rep, row) in enumerate(zip(
                qualities.tolist(), in_index.tolist(), out_index.tolist(),
                resources, bandwidths.tolist(), n_hosts.tolist(), hosts.tolist(),
            )):
                in_format = in_formats[i_in]
                qin = qins.get((in_format, quality))
                if qin is None:
                    qin = qins[in_format, quality] = QoSVector(
                        format=in_format,
                        quality=Interval(quality, max_quality),
                    )
                out_format = out_formats[i_out]
                qout = qouts.get((out_format, quality))
                if qout is None:
                    qout = qouts[out_format, quality] = QoSVector(
                        format=out_format, quality=quality
                    )
                iid = f"{service}/{j}"
                instances[iid] = make_instance(
                    instance_id=iid,
                    service=service,
                    qin=qin,
                    qout=qout,
                    resources=r,
                    bandwidth=b,
                )
                replicas[iid] = tuple([peers[p] for p in row[width - n_rep:]])

    by_service: Dict[str, List[ServiceInstance]] = {}
    for inst in instances.values():
        by_service.setdefault(inst.service, []).append(inst)
    hosted_by: Dict[int, Set[str]] = {}
    for iid, peers_of in replicas.items():
        for pid in peers_of:
            hosted_by.setdefault(pid, set()).add(iid)
    return ObjectCatalog(instances, replicas, by_service, hosted_by)


def populate(ring, catalog: ObjectCatalog) -> None:
    """The registry's records, placed one ``ring.put`` at a time."""
    for service, instances in catalog.by_service.items():
        ring.put(ServiceRegistry.SERVICE_PREFIX + service, tuple(instances))
    for iid, hosts in catalog.replicas.items():
        ring.put(ServiceRegistry.INSTANCE_PREFIX + iid, hosts)

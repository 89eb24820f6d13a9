"""The scalar catalog generator, kept as the distribution oracle.

This is ``repro.services.catalog.generate_catalog`` as it ran until the
catalog was drawn column by column: about eight scalar draws per
instance (quality, two formats, ``R``, ``b``, replica count and one
``rng.choice(..., replace=False)`` for the hosts) plus one instance
count per service, in that order.  The two translator draws it made
through ``AnalyticTranslator.resources_for`` / ``bandwidth_for`` when
those took one quality at a time are transcribed below as
``_resources_for`` / ``_bandwidth_for``, unchanged.

The production generator draws a different realization from the same
distribution; ``tests/services/test_catalog_distribution.py`` holds both
to the configured marginals with the same assertions, so this one shows
the thresholds are calibrated.  Its instances are stacked into one
``InstanceTable`` (:func:`stack`) to make the ``ServiceCatalog``.

:func:`make_instance` (a ``ServiceInstance`` over a one-row table) and
:func:`instance_group` are the instance constructor and grouping helper
that production, which only views its catalog's one table, dropped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector
from repro.services.applications import ApplicationTemplate
from repro.services.catalog import CatalogConfig, ServiceCatalog
from repro.services.model import InstanceTable, ServiceInstance
from repro.services.translator import AnalyticTranslator


def _resources_for(
    translator: AnalyticTranslator, quality: int, rng: np.random.Generator
) -> ResourceVector:
    """Draw an end-system requirement ``R = f(Qin, Qout)``."""
    base = rng.uniform(*translator.base_demand, size=len(translator.resource_names))
    return ResourceVector(
        translator.resource_names, base * translator.quality_scale(quality)
    )


def _bandwidth_for(
    translator: AnalyticTranslator, quality: int, rng: np.random.Generator
) -> float:
    """Draw the outgoing bandwidth requirement ``b`` (bps)."""
    try:
        lo, hi = translator.bandwidth_ranges[quality]
    except KeyError:
        raise ValueError(
            f"no bandwidth range configured for quality level {quality}"
        ) from None
    return float(rng.uniform(lo, hi))


def make_instance(
    instance_id: str,
    service: str,
    qin: QoSVector,
    qout: QoSVector,
    resources: ResourceVector,
    bandwidth: float,
) -> ServiceInstance:
    """A :class:`ServiceInstance` viewing a one-row table of its own."""
    n_in = len(qin)
    table = InstanceTable(
        [instance_id], [(service, 1)],
        [*qin.values(), *qout.values()],
        tuple(qin), [range(n_in)],
        tuple(qout), [range(n_in, n_in + len(qout))],
        resources.names, [resources.values], [bandwidth],
    )
    # The vectors given are the ones the view hands back.
    table._vectors[(0, *range(n_in))] = qin
    table._vectors[(1, *range(n_in, n_in + len(qout)))] = qout
    return table.views()[0]


def instance_group(
    instances: Iterable[ServiceInstance],
) -> Dict[str, List[ServiceInstance]]:
    """Group instances by abstract service name (the paper's
    "service instance group for the same service", Fig. 3)."""
    groups: Dict[str, List[ServiceInstance]] = {}
    for inst in instances:
        groups.setdefault(inst.service, []).append(inst)
    return groups


def stack(instances: Iterable[ServiceInstance]) -> InstanceTable:
    """One table holding copies of ``instances``' rows, grouped by
    service in order of first appearance.  Every instance must have the
    same ``Qin`` / ``Qout`` dimensions and ``R`` names as the first."""
    groups = instance_group(instances)
    rows = [inst for group in groups.values() for inst in group]
    codes: Dict[object, int] = {}
    values: List[object] = []

    def coded(vector: QoSVector) -> List[int]:
        return [codes.setdefault(v, len(codes)) for v in vector.values()]

    qin = [coded(inst.qin) for inst in rows]
    qout = [coded(inst.qout) for inst in rows]
    values.extend(codes)
    first = rows[0]
    if any(
        (tuple(i.qin), tuple(i.qout), i.resources.names)
        != (tuple(first.qin), tuple(first.qout), first.resources.names)
        for i in rows
    ):
        raise ValueError("instances differ in QoS dimensions or resource names")
    return InstanceTable(
        [inst.instance_id for inst in rows],
        [(service, len(group)) for service, group in groups.items()],
        values, tuple(first.qin), qin, tuple(first.qout), qout,
        first.resources.names,
        [inst.resources.values for inst in rows],
        [inst.bandwidth for inst in rows],
    )


def generate_catalog(
    applications: Sequence[ApplicationTemplate],
    peer_ids: Sequence[int],
    rng: np.random.Generator,
    config: CatalogConfig | None = None,
    translator: AnalyticTranslator | None = None,
) -> ServiceCatalog:
    """Generate instances and replica placement per the paper's §4.1.

    For service ``k`` of an application, an instance draws

    * ``Qin.format``  uniformly from interface ``k-1``'s vocabulary,
    * ``Qout.format`` uniformly from interface ``k``'s vocabulary,
    * an output quality level ``q``, with ``Qout.quality = q`` and
      ``Qin.quality = [q, 3]``,
    * ``R`` and ``b`` from the analytic translator at quality ``q``.

    Placement: each instance lands on ``U[replicas_per_instance]``
    distinct peers chosen uniformly.
    """
    config = config or CatalogConfig()
    translator = translator or AnalyticTranslator()
    peer_ids = list(peer_ids)
    if not peer_ids:
        raise ValueError("need at least one peer to host replicas")

    instances: Dict[str, ServiceInstance] = {}
    replicas: Dict[str, Tuple[int, ...]] = {}
    ilo, ihi = config.instances_per_service
    rlo, rhi = config.replicas_per_instance
    # Scalar-draw spellings of rng.choice that consume the identical
    # bit-generator state (choice(p=) is cumsum+searchsorted over one
    # random(); choice without p is one integers()) but skip choice's
    # per-call validation -- catalog generation makes thousands of draws.
    quality_cdf = np.cumsum(config.quality_weights)
    quality_cdf /= quality_cdf[-1]
    max_quality = max(config.quality_levels)
    # QoSVector is immutable, so every instance with the same (format,
    # quality) shares one Qin / one Qout object.
    qins: Dict[Tuple[str, int], QoSVector] = {}
    qouts: Dict[Tuple[str, int], QoSVector] = {}

    for app in applications:
        for k, service in enumerate(app.services):
            in_formats = app.interface_formats(k - 1)
            out_formats = app.interface_formats(k)
            n_inst = int(rng.integers(ilo, ihi + 1))
            for j in range(n_inst):
                quality = int(config.quality_levels[
                    quality_cdf.searchsorted(rng.random(), side="right")
                ])
                in_format = str(in_formats[int(rng.integers(len(in_formats)))])
                qin = qins.get((in_format, quality))
                if qin is None:
                    qin = qins[in_format, quality] = QoSVector(
                        format=in_format,
                        quality=Interval(quality, max_quality),
                    )
                out_format = str(out_formats[int(rng.integers(len(out_formats)))])
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
                    resources=_resources_for(translator, quality, rng),
                    bandwidth=_bandwidth_for(translator, quality, rng),
                )
                n_rep = min(int(rng.integers(rlo, rhi + 1)), len(peer_ids))
                chosen = rng.choice(len(peer_ids), size=n_rep, replace=False)
                replicas[iid] = tuple(sorted(peer_ids[c] for c in chosen.tolist()))

    return ServiceCatalog(applications, stack(instances.values()), replicas)

"""Service catalog generation and the replica map (paper §2.3, §4.1).

The catalog captures the P2P grid's **redundancy property**:

1. every abstract service has many *service instances* with different
   ``(Qin, Qout, R, b)`` (the paper's evaluation: 10-20 instances per
   service), and
2. every instance is replicated on many *peers* (40-80 peers per
   instance).

The instance-level QoS parameters are drawn from the owning
application's interface vocabularies (:mod:`repro.services.applications`)
so that only some instance pairs are QoS-consistent, and from the
analytic translator (:mod:`repro.services.translator`) for resources.

An instance with output quality ``q`` requires input quality at least
``q`` (``Qin.quality = [q, 3]``): a component cannot manufacture quality
its input lacks, which is what makes end-to-end high-quality paths
genuinely harder to compose than low-quality ones.

The replica map is *mutable*: churn removes departed peers' replicas and
assigns fresh replicas to arriving peers (:meth:`ServiceCatalog.remove_peer`
and :meth:`ServiceCatalog.assign_new_peer`).  Each instance's **host
record** is one immutable ascending ``tuple`` of peer ids, held once: the
registry puts the same object on the DHT, discovery returns it and peer
selection reads it as the hop's candidates.  Churn replaces a record
(:func:`hosts_with` / :func:`hosts_without`), never edits one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.qos import Interval, QoSVector
from repro.services.applications import ApplicationTemplate
from repro.services.model import ServiceInstance
from repro.services.translator import AnalyticTranslator

__all__ = [
    "CatalogConfig",
    "ServiceCatalog",
    "generate_catalog",
    "hosts_with",
    "hosts_without",
]


def hosts_with(hosts: Tuple[int, ...], peer_id: int) -> Tuple[int, ...]:
    """The host record ``hosts`` with ``peer_id`` in its sorted place."""
    i = bisect_left(hosts, peer_id)
    if i < len(hosts) and hosts[i] == peer_id:
        return hosts
    return hosts[:i] + (peer_id,) + hosts[i:]


def hosts_without(hosts: Tuple[int, ...], peer_id: int) -> Tuple[int, ...]:
    """The host record ``hosts`` minus ``peer_id`` (unchanged if absent)."""
    i = bisect_left(hosts, peer_id)
    if i < len(hosts) and hosts[i] == peer_id:
        return hosts[:i] + hosts[i + 1:]
    return hosts


@dataclass(frozen=True)
class CatalogConfig:
    """Knobs for catalog generation; defaults mirror §4.1."""

    #: Inclusive range for the number of instances per abstract service.
    instances_per_service: Tuple[int, int] = (10, 20)
    #: Inclusive range for the number of hosting peers per instance.
    replicas_per_instance: Tuple[int, int] = (40, 80)
    #: Quality levels instances may produce.
    quality_levels: Tuple[int, ...] = (1, 2, 3)
    #: Probability of an instance producing each quality level.  Biased
    #: towards high quality so that QoS-consistent chains exist for every
    #: user level with overwhelming probability (a high-quality output
    #: satisfies every requirement level; see qoscompiler).
    quality_weights: Tuple[float, ...] = (0.2, 0.3, 0.5)

    def __post_init__(self) -> None:
        lo, hi = self.instances_per_service
        if not 1 <= lo <= hi:
            raise ValueError(f"bad instances_per_service range ({lo}, {hi})")
        rlo, rhi = self.replicas_per_instance
        if not 1 <= rlo <= rhi:
            raise ValueError(f"bad replicas_per_instance range ({rlo}, {rhi})")
        if len(self.quality_weights) != len(self.quality_levels):
            raise ValueError("one weight per quality level is required")
        if abs(sum(self.quality_weights) - 1.0) > 1e-9:
            raise ValueError("quality weights must sum to 1")


class ServiceCatalog:
    """All instances plus the (mutable) instance -> hosting peers map."""

    def __init__(
        self,
        applications: Sequence[ApplicationTemplate],
        instances: Dict[str, ServiceInstance],
        replicas: Dict[str, Tuple[int, ...]],
    ) -> None:
        self.applications = list(applications)
        self.app_by_name = {a.name: a for a in applications}
        self.instances = instances
        self.by_service: Dict[str, List[ServiceInstance]] = {}
        for inst in instances.values():
            self.by_service.setdefault(inst.service, []).append(inst)
        self.replicas = replicas
        self.hosted_by: Dict[int, Set[str]] = {}
        for iid, peers in replicas.items():
            for pid in peers:
                self.hosted_by.setdefault(pid, set()).add(iid)
        #: Average number of replicas a peer carries at generation time;
        #: used to provision arriving peers under churn.
        n_hosting = max(len(self.hosted_by), 1)
        self._replicas_per_peer = (
            sum(len(s) for s in self.hosted_by.values()) / n_hosting
        )

    # -- queries ---------------------------------------------------------
    def candidates(self, service: str) -> List[ServiceInstance]:
        """All instances implementing ``service`` (discovery result)."""
        return self.by_service.get(service, [])

    def hosts(self, instance_id: str) -> Tuple[int, ...]:
        """Peers hosting a replica of ``instance_id``: the host record."""
        return self.replicas.get(instance_id, ())

    def hosted_instances(self, peer_id: int) -> Tuple[str, ...]:
        """Instance ids replicated on ``peer_id``, sorted."""
        return tuple(sorted(self.hosted_by.get(peer_id, ())))

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def replicas_per_peer(self) -> float:
        return self._replicas_per_peer

    # -- churn support ------------------------------------------------------
    def remove_peer(self, peer_id: int) -> None:
        """Drop every replica hosted by a departing peer."""
        replicas = self.replicas
        for iid in self.hosted_by.pop(peer_id, ()):
            replicas[iid] = hosts_without(replicas[iid], peer_id)

    def assign_new_peer(self, peer_id: int, rng: np.random.Generator) -> None:
        """Give an arriving peer a typical share of instance replicas.

        The count is Poisson around the generation-time mean so the
        grid's aggregate redundancy is stationary under churn.
        """
        if peer_id in self.hosted_by:
            raise ValueError(f"peer {peer_id} already hosts replicas")
        k = min(int(rng.poisson(self._replicas_per_peer)), self.n_instances)
        self.hosted_by[peer_id] = set()
        if k == 0:
            return
        all_iids = list(self.instances)
        chosen = rng.choice(len(all_iids), size=k, replace=False)
        for idx in chosen:
            iid = all_iids[int(idx)]
            self.replicas[iid] = hosts_with(self.replicas.get(iid, ()), peer_id)
            self.hosted_by[peer_id].add(iid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ServiceCatalog {len(self.applications)} apps, "
            f"{self.n_instances} instances, "
            f"{len(self.hosted_by)} hosting peers>"
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
                instances[iid] = ServiceInstance(
                    instance_id=iid,
                    service=service,
                    qin=qin,
                    qout=qout,
                    resources=translator.resources_for(quality, rng),
                    bandwidth=translator.bandwidth_for(quality, rng),
                )
                n_rep = min(int(rng.integers(rlo, rhi + 1)), len(peer_ids))
                chosen = rng.choice(len(peer_ids), size=n_rep, replace=False)
                replicas[iid] = tuple(sorted(peer_ids[c] for c in chosen.tolist()))

    return ServiceCatalog(applications, instances, replicas)

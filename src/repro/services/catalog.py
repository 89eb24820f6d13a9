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

The instances themselves are one :class:`~repro.services.model.InstanceTable`
(``ServiceCatalog.table``): :func:`generate_catalog` turns each service's
column draws into table rows, and every ``ServiceInstance`` the catalog
hands out is a view over its row.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.qos import Interval, QoSValue
from repro.services.applications import ApplicationTemplate
from repro.services.model import InstanceTable, ServiceInstance
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
    """All instances plus the (mutable) instance -> hosting peers map.

    ``table`` holds the instances; ``instances`` / ``by_service`` map ids
    and service names onto its row views.  ``hosted_by`` (peer -> the
    sorted ids of the instances it hosts, the tuple
    :meth:`hosted_instances` returns) is the inverse of ``replicas``,
    built on first read: only churn, diagnostics and tests ask for it,
    so a run without churn never pays its one tuple per hosting peer.
    """

    def __init__(
        self,
        applications: Sequence[ApplicationTemplate],
        table: InstanceTable,
        replicas: Dict[str, Tuple[int, ...]],
    ) -> None:
        self.applications = list(applications)
        self.app_by_name = {a.name: a for a in applications}
        self.table = table
        views = table.views()
        self.instances: Dict[str, ServiceInstance] = dict(zip(table.ids, views))
        offsets = table.offsets
        self.by_service: Dict[str, List[ServiceInstance]] = {
            service: views[offsets[k]:offsets[k + 1]]
            for k, service in enumerate(table.services)
        }
        self.replicas = replicas
        self._hosted_by: Optional[Dict[int, Tuple[str, ...]]] = None
        #: Average number of replicas per peer that hosts at least one at
        #: generation time; used to provision arriving peers under churn.
        #: A host record lists distinct peers, so the replica total is
        #: the sum of the records' lengths.
        n_hosting = max(len(set().union(*replicas.values())), 1)
        self._replicas_per_peer = sum(map(len, replicas.values())) / n_hosting

    @property
    def hosted_by(self) -> Dict[int, Tuple[str, ...]]:
        """``peer -> sorted ids of the instances it hosts``, built on
        first read."""
        hosted_by = self._hosted_by
        if hosted_by is None:
            lists: Dict[int, List[str]] = {}
            for iid, hosts in self.replicas.items():
                for pid in hosts:
                    hosted = lists.get(pid)
                    if hosted is None:
                        lists[pid] = [iid]
                    else:
                        hosted.append(iid)
            hosted_by = self._hosted_by = {
                pid: tuple(sorted(iids)) for pid, iids in lists.items()
            }
        return hosted_by

    # -- queries ---------------------------------------------------------
    def hosts(self, instance_id: str) -> Tuple[int, ...]:
        """Peers hosting a replica of ``instance_id``: the host record."""
        return self.replicas.get(instance_id, ())

    def hosted_instances(self, peer_id: int) -> Tuple[str, ...]:
        """Instance ids replicated on ``peer_id``, sorted."""
        return self.hosted_by.get(peer_id, ())

    @property
    def n_instances(self) -> int:
        return len(self.table.ids)

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
        """Give an arriving peer a share of instance replicas.

        The count is Poisson around :attr:`replicas_per_peer`, the
        generation-time mean over the peers that host at least one
        replica.  Peers that drew no replica are not in that mean, so
        an arrival gets more replicas than the mean over all peers
        (+4.6 % at ``steady-paper`` seed 0: 3.218 against 3.076), and
        the grid's aggregate redundancy drifts upward under churn
        rather than staying stationary.
        """
        if peer_id in self.hosted_by:
            raise ValueError(f"peer {peer_id} already hosts replicas")
        k = min(int(rng.poisson(self._replicas_per_peer)), self.n_instances)
        if k == 0:
            self.hosted_by[peer_id] = ()
            return
        ids = self.table.ids
        replicas = self.replicas
        hosted = []
        for idx in rng.choice(len(ids), size=k, replace=False).tolist():
            iid = ids[idx]
            replicas[iid] = hosts_with(replicas.get(iid, ()), peer_id)
            hosted.append(iid)
        self.hosted_by[peer_id] = tuple(sorted(hosted))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ServiceCatalog {len(self.applications)} apps, "
            f"{self.n_instances} instances, "
            f"{len(self.hosted_by)} hosting peers>"
        )


def _distinct_rows(
    counts: np.ndarray, n_peers: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform ``counts[i]``-subsets of ``range(n_peers)``, one per row.

    A row that wants more than half the peers draws the ones it leaves
    out instead (the complement of a uniform subset is uniform), so no
    draw covers more than half the peers.  The draws are one ``(n,
    width)`` block of indices with replacement (row ``i`` uses its first
    ``draws[i]`` slots); then only the slots that repeat an earlier slot
    of their row are redrawn, until no row repeats.  Every step commutes
    with relabelling the peers, so each row's set is a uniform subset;
    at most half full, a row finishes in a few rounds, in ``O(n * width)``
    time and memory.  Returned rows are ascending, row ``i``'s subset
    being its last ``counts[i]`` entries (the unused slots hold negative
    padding, which sorts first).
    """
    flip = 2 * counts > n_peers
    draws = np.where(flip, n_peers - counts, counts)
    width = int(draws.max())
    block = rng.integers(n_peers, size=(len(counts), width))
    pad = np.arange(width) >= draws[:, None]
    block[pad] = -1 - pad.nonzero()[1]
    while True:
        # Stable, so of equal slots the earliest sorts first and keeps
        # its peer; each later one is redrawn.
        order = block.argsort(axis=1, kind="stable")
        ranked = np.take_along_axis(block, order, axis=1)
        rows, cols = (ranked[:, 1:] == ranked[:, :-1]).nonzero()
        if not len(rows):
            break
        block[rows, order[rows, cols + 1]] = rng.integers(n_peers, size=len(rows))
    if not flip.any():
        return ranked
    # Fewer than twice max(counts) peers, so an (n, n_peers) membership
    # block is small: flip the complemented rows and right-align.
    member = np.zeros((len(counts), n_peers), dtype=bool)
    rows, cols = (ranked >= 0).nonzero()
    member[rows, ranked[rows, cols]] = True
    member[flip] = ~member[flip]
    ids = np.where(member, np.arange(n_peers), -1)
    ids.sort(axis=1)
    return ids[:, n_peers - int(counts.max()):]


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
    distinct peers chosen uniformly (all of them, when there are fewer).

    Draws come in blocks: one instance count per service for the whole
    catalog, then per service one array each for quality, input format,
    output format, ``R`` (an ``(n, m)`` block), ``b``, replica count and
    the replica sets (:func:`_distinct_rows`), in that order.  The blocks
    become the columns of one :class:`InstanceTable`: formats and quality
    levels are coded against one vocabulary, ``R`` and ``b`` are
    concatenated.  Each host record is a tuple of the caller's own
    peer-id objects, sliced from one tuple per service.

    Instance ids are ``"<service>/<j>"``, so two applications may not
    name the same service: that raises :class:`ValueError`.
    """
    config = config or CatalogConfig()
    translator = translator or AnalyticTranslator()
    # Index i of a replica row is the i-th smallest peer id, so an
    # ascending index row is an ascending host record.
    peers = sorted(peer_ids)
    if not peers:
        raise ValueError("need at least one peer to host replicas")
    services = [service for app in applications for service in app.services]
    shared = sorted(s for s, n in Counter(services).items() if n > 1)
    if shared:
        raise ValueError(
            f"service name(s) {shared} appear in more than one place across "
            "the applications; instance ids are keyed by service name"
        )

    ilo, ihi = config.instances_per_service
    rlo, rhi = config.replicas_per_instance
    quality_cdf = np.cumsum(config.quality_weights)
    quality_cdf /= quality_cdf[-1]
    max_quality = max(config.quality_levels)

    # The one vocabulary of Qin / Qout values.  Column 0 of a QoS code
    # block is the format, column 1 the quality: ``q`` on the output
    # side, ``Interval(q, max)`` on the input side.
    values: List[QoSValue] = []
    codes: Dict[QoSValue, int] = {}

    def coded(items: Sequence[QoSValue]) -> np.ndarray:
        out = []
        for value in items:
            code = codes.get(value)
            if code is None:
                code = codes[value] = len(values)
                values.append(value)
            out.append(code)
        return np.array(out, dtype=np.int32)

    levels = np.asarray(config.quality_levels)
    out_quality = coded(levels.tolist())
    in_quality = coded([Interval(q, max_quality) for q in levels.tolist()])

    # Gathering from an object array keeps the caller's peer-id objects.
    peer_objects = np.array(peers, dtype=object)
    counts = rng.integers(ilo, ihi + 1, size=len(services)).tolist()
    ids: List[str] = []
    rows: List[Tuple[str, int]] = []
    replicas: Dict[str, Tuple[int, ...]] = {}
    # Per-service blocks, each list seeded with an empty block so that
    # an empty catalog concatenates too.
    qin = [np.zeros((0, 2), dtype=np.int32)]
    qout = [np.zeros((0, 2), dtype=np.int32)]
    resources = [np.zeros((0, len(translator.resource_names)))]
    bandwidths = [np.zeros(0)]
    for app in applications:
        for k, service in enumerate(app.services):
            in_formats = coded(app.interface_formats(k - 1))
            out_formats = coded(app.interface_formats(k))
            n = counts[len(rows)]
            quality = quality_cdf.searchsorted(rng.random(n), side="right")
            in_index = rng.integers(len(in_formats), size=n)
            out_index = rng.integers(len(out_formats), size=n)
            qualities = levels[quality]
            resources.append(translator.resources_for(qualities, rng))
            bandwidths.append(translator.bandwidth_for(qualities, rng))
            hosts = np.minimum(rng.integers(rlo, rhi + 1, size=n), len(peers))
            block = _distinct_rows(hosts, len(peers), rng)
            qin.append(np.stack([in_formats[in_index], in_quality[quality]], 1))
            qout.append(np.stack([out_formats[out_index], out_quality[quality]], 1))
            service_ids = [f"{service}/{j}" for j in range(n)]
            # Row i's subset is its last hosts[i] entries, ascending: the
            # service's host records are slices of one tuple of them.
            width = block.shape[1]
            chosen = block[np.arange(width) >= width - hosts[:, None]]
            records = tuple(peer_objects[chosen].tolist())
            ends = np.cumsum(hosts).tolist()
            replicas.update(zip(
                service_ids,
                map(records.__getitem__, map(slice, [0] + ends, ends)),
            ))
            ids += service_ids
            rows.append((service, n))

    table = InstanceTable(
        ids, rows, values,
        ("format", "quality"), np.concatenate(qin),
        ("format", "quality"), np.concatenate(qout),
        translator.resource_names,
        np.concatenate(resources), np.concatenate(bandwidths),
    )
    return ServiceCatalog(applications, table, replicas)

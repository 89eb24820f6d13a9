"""The service registry layered on the Chord DHT.

Discovery is the first protocol step of on-demand composition (§3.2):
"the P2P lookup protocol ... is invoked to retrieve the locations (i.e.,
IP addresses) and QoS specifications (Qin, Qout, R) of all candidate
service instances, according to the abstract service path."

Records (all living in Chord node stores, re-homed automatically on
churn by the ring's key handoff):

* ``service:<name>``  -> tuple of candidate :class:`ServiceInstance`
  specs (the co-located QoS specifications of assumption 1, §3.1);
* ``instance:<id>``   -> the instance's host record, an ascending tuple
  of hosting peer ids (the locations).  It is the catalog's own tuple,
  not a copy, at populate time and after every churn event.

Every discovery is one routed read: nothing is cached, so plain, churned
and faulted runs take the same path.  Host records change under churn;
:meth:`ServiceRegistry.peer_departed` and
:meth:`ServiceRegistry.peer_joined` keep them in sync with the catalog's
ground truth while exercising real DHT update paths.  The grid updates
the catalog first, so the registry writes the catalog's record to the
DHT, and each host record is rebuilt once per event; a record the
catalog lacks, or one that contradicts the event, is a ``ValueError``.

Fault tolerance
---------------
With a :class:`~repro.faults.injector.FaultInjector` attached
(:meth:`ServiceRegistry.configure_faults`), each routed query may fail
in flight.  The registry retries with capped exponential backoff,
re-routing around the hop that dropped the previous copy (retry with
exclusion -- each copy's fate is an independent draw, and each retry
re-pays the routing hops).  Budget exhaustion degrades to "no record
found", which the composition layer already treats as NO_CANDIDATES.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Protocol, Sequence, Tuple

from repro.services.catalog import ServiceCatalog
from repro.services.model import ServiceInstance

__all__ = ["DhtProtocol", "ServiceRegistry"]


def _lists(hosts: Tuple[int, ...], peer_id: int) -> bool:
    """Whether the ascending host record ``hosts`` holds ``peer_id``."""
    i = bisect_left(hosts, peer_id)
    return i < len(hosts) and hosts[i] == peer_id


class DhtProtocol(Protocol):
    """What the registry needs from a lookup substrate.

    Satisfied by :class:`~repro.lookup.chord.ChordRing` and by the
    test-side CAN of ``tests/lookup/can.py`` (the paper's "Chord or CAN").
    """

    def put(self, key: str, value: Any) -> None: ...
    def put_many(self, keys: Sequence[str], values: Sequence[Any]) -> None: ...
    def get(self, key: str, from_peer: int) -> Tuple[Any, int]: ...
    def lookup(self, key: str, from_peer: int) -> Tuple[Any, int]: ...
    def join(self, peer_id: int): ...
    def join_many(self, peer_ids: Sequence[int]): ...
    def leave(self, peer_id: int) -> None: ...
    def __contains__(self, peer_id: int) -> bool: ...


class ServiceRegistry:
    """Service and instance records on a DHT (Chord or CAN)."""

    SERVICE_PREFIX = "service:"
    INSTANCE_PREFIX = "instance:"

    #: Optional :class:`repro.telemetry.Telemetry`; set by the grid (the
    #: discovery counter is metrics-only, never a bus event).
    telemetry = None
    #: Always 0: nothing is served from a cache.  Read only by
    #: ``bench/inproc.py``, until a ``benchmark`` PR drops its
    #: ``lookup.cached`` / ``lookup.cache_hit_ratio`` metrics.
    n_cached_discoveries = 0

    def __init__(self, ring: DhtProtocol, catalog: ServiceCatalog) -> None:
        self.ring = ring
        self.catalog = catalog
        #: Discovery accounting: every discovery is one routed read.
        self.n_routed_discoveries = 0
        self.discovery_hops = 0
        self.injector = None
        self.retry = None
        self._populate()

    def configure_faults(self, injector, retry) -> None:
        """Attach a fault injector + :class:`~repro.faults.RetryPolicy`."""
        self.injector = injector
        self.retry = retry

    def _populate(self) -> None:
        """Every service record, then every instance record, in one put."""
        by_service, replicas = self.catalog.by_service, self.catalog.replicas
        self.ring.put_many(
            [
                *map(self.SERVICE_PREFIX.__add__, by_service),
                *map(self.INSTANCE_PREFIX.__add__, replicas),
            ],
            [*map(tuple, by_service.values()), *replicas.values()],
        )

    # -- discovery (routed; costs hops) -----------------------------------
    def _routed_get(self, key: str, from_peer: int) -> Tuple[Any, int]:
        """One routed read, retrying around in-flight query drops."""
        inj = self.injector
        if inj is None:
            return self.ring.get(key, from_peer)
        retry = self.retry
        total_hops = 0
        attempts = 0
        while True:
            node, hops = self.ring.lookup(key, from_peer)
            total_hops += hops
            if not inj.lookup_fails(key, from_peer, node.peer_id):
                return node.store.get(key), total_hops
            attempts += 1
            if attempts > retry.max_retries:
                inj.retry_exhausted("lookup", attempts=attempts, key=key)
                return None, total_hops
            inj.retry_attempt(
                "lookup", attempts, retry.delay(attempts, inj.rng), key=key
            )

    def _discover(self, key: str, from_peer: int) -> Tuple[Any, int]:
        """One accounted discovery: ``(record or None, hops)``."""
        value, hops = self._routed_get(key, from_peer)
        self.n_routed_discoveries += 1
        self.discovery_hops += hops
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("discovery.routed").inc()
        return value, hops

    def discover_service(
        self, service: str, from_peer: int
    ) -> Tuple[Tuple[ServiceInstance, ...], int]:
        """All candidate instances of ``service``: ``(specs, hops)``."""
        value, hops = self._discover(self.SERVICE_PREFIX + service, from_peer)
        return (value or ()), hops

    def discover_hosts(
        self, instance_id: str, from_peer: int
    ) -> Tuple[Tuple[int, ...], int]:
        """Peers hosting ``instance_id``: ``(host record, hops)``."""
        value, hops = self._discover(
            self.INSTANCE_PREFIX + instance_id, from_peer
        )
        return (value or ()), hops

    def discover_path_candidates(
        self, services: Iterable[str], from_peer: int
    ) -> Tuple[Dict[str, Tuple[ServiceInstance, ...]], int]:
        """One routed lookup per abstract service; total hops returned."""
        out: Dict[str, Tuple[ServiceInstance, ...]] = {}
        total = 0
        for service in services:
            specs, hops = self.discover_service(service, from_peer)
            out[service] = specs
            total += hops
        return out, total

    # -- churn maintenance -----------------------------------------------------
    def peer_departed(self, peer_id: int, hosted: Iterable[str]) -> None:
        """Remove a departed peer from every instance record it hosted.

        Must run *before* the ring drops the peer so record re-homing and
        content updates stay ordered like the real protocol (the
        successor inherits already-cleaned records).
        """
        self._publish(peer_id, hosted, listed=False)
        if peer_id in self.ring:
            self.ring.leave(peer_id)

    def peer_joined(self, peer_id: int, hosted: Iterable[str]) -> None:
        """Add an arriving peer to the ring and its hosted records."""
        if peer_id not in self.ring:
            self.ring.join(peer_id)
        self._publish(peer_id, hosted, listed=True)

    def _publish(self, peer_id: int, hosted: Iterable[str], listed: bool) -> None:
        """Put the catalog's record of each of ``hosted`` after ``peer_id``
        joined (``listed``) or left; the catalog must already say so."""
        replicas, ring = self.catalog.replicas, self.ring
        prefix = self.INSTANCE_PREFIX
        for iid in hosted:
            record = replicas.get(iid)
            if record is None or _lists(record, peer_id) is not listed:
                raise ValueError(
                    f"catalog record of {iid!r} does not show peer {peer_id} "
                    f"{'joined' if listed else 'departed'}: {record!r}"
                )
            ring.put(prefix + iid, record)

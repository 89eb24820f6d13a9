"""The probing service: stale-by-one-epoch performance views.

Implements the :class:`~repro.core.selection.PerformanceView` protocol on
top of per-peer :class:`~repro.probing.neighbors.NeighborTable`\\ s.

Semantics
---------
* ``observe(observer, target)`` returns information only when ``target``
  is an active neighbor of ``observer`` -- the scalability constraint of
  §2.2 (no peer knows more than ``M`` others).
* The returned state is the target's state **as of the start of the
  current probing epoch** (``epoch = floor(now / period)``): a periodic
  prober refreshes once per period, so every observer within an epoch
  sees the same, possibly stale snapshot.  Snapshots are taken lazily on
  first access per epoch, making the simulation cost proportional to
  queries rather than ``peers x neighbors x epochs``.
* The available bandwidth β combines the snapshot's uplink residual with
  the (current) pair bottleneck and the observer's own downlink -- the
  observer always knows its own side precisely.

Overhead accounting
-------------------
``probe_messages`` counts one message per probe attempt (including
fault-triggered retries) and ``resolution_messages`` counts the
neighbor-resolution notifications a candidate flood needed to send
(:meth:`ProbingService.resolve_selection_hops`), so the benches can
verify the paper's "probing overhead within M/N = 1%" claim.

Fault tolerance
---------------
With a :class:`~repro.faults.injector.FaultInjector` attached, probe
messages may be lost or delayed.  An attempt whose injected delay
exceeds ``ProbingConfig.timeout`` counts as lost; lost attempts retry
with the capped exponential backoff of ``ProbingConfig.retry``.  When
the retry budget runs dry the prober degrades instead of failing: it
keeps serving the previous epoch's snapshot (marked stale) or, with no
snapshot to fall back on, reports the target as unknown -- which sends
the selector down its plain random-fallback path.  The backoff delays
are virtual (the setup exchange is synchronous); they are recorded on
``retry.attempt`` telemetry events rather than the sim clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector
from repro.core.selection import ObservedBlock, PeerInfo
from repro.faults.backoff import RetryPolicy
from repro.network.peer import PeerDirectory
from repro.network.topology import NetworkModel
from repro.probing.neighbors import NeighborTable
from repro.sim.engine import Simulator

__all__ = ["ProbingConfig", "ProbingService"]


@dataclass(frozen=True)
class ProbingConfig:
    """Probing parameters (defaults mirror §4.1: ``M = 100``)."""

    #: Max neighbors any peer maintains/probes (the paper's ``M``).
    budget: int = 100
    #: Probe period in minutes (information staleness bound).
    period: float = 1.0
    #: Soft-state TTL for neighbor entries, minutes.
    ttl: float = 10.0
    #: A probe attempt slower than this (minutes) counts as lost.
    timeout: float = 0.25
    #: Retry budget + backoff for lost/timed-out probes (only exercised
    #: when a fault injector is attached).
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("probe period must be positive")
        if self.ttl <= 0:
            raise ValueError("neighbor TTL must be positive")
        if self.timeout <= 0:
            raise ValueError("probe timeout must be positive")


#: Sentinel: the probe failed this epoch but the peer is not known dead.
_LOST = object()


@dataclass
class _Snapshot:
    epoch: int
    availability: np.ndarray
    avail_up: float
    uptime: float
    #: True when the refresh failed and these are a prior epoch's values.
    stale: bool = False


class ProbingService:
    """Bounded-neighborhood, epoch-snapshotted performance information."""

    def __init__(
        self,
        sim: Simulator,
        directory: PeerDirectory,
        network: NetworkModel,
        config: ProbingConfig | None = None,
        telemetry=None,
        injector=None,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.network = network
        self.config = config or ProbingConfig()
        #: Optional :class:`repro.telemetry.Telemetry` (probe fan-out and
        #: budget-usage instrumentation); ``None`` keeps observe() clean.
        self.telemetry = telemetry
        #: Optional :class:`repro.faults.injector.FaultInjector`; ``None``
        #: keeps the probe fast path loss-free and allocation-identical.
        self.injector = injector
        self._tables: Dict[int, NeighborTable] = {}
        self._snapshots: Dict[int, _Snapshot] = {}
        #: Struct-of-arrays backing (``None`` on the object directory).
        #: With a store AND no injector, epoch snapshots live in the
        #: store's ``snap_*`` arrays (refreshed per neighbor block)
        #: instead of per-peer ``_Snapshot`` objects; fault injection
        #: keeps the dict plane, whose ghost/degrade semantics are
        #: per-object by nature.
        self._store = getattr(directory, "store", None)
        self.probe_messages = 0
        self.resolution_messages = 0

    # -- neighbor resolution (paper §3.3) ------------------------------------
    def table(self, peer_id: int) -> NeighborTable:
        tbl = self._tables.get(peer_id)
        if tbl is None:
            tbl = NeighborTable(self.config.budget)
            self._tables[peer_id] = tbl
        return tbl

    def resolve(
        self,
        observer: int,
        neighbors: Iterable[Tuple[int, int, bool]],
    ) -> int:
        """Resolve ``(peer_id, hop, direct)`` relations at ``observer``."""
        triples = list(neighbors)
        added = self.table(observer).resolve(triples, self.sim.now, self.config.ttl)
        self._count_resolution(len(triples))
        return added

    def _count_resolution(self, n_messages: int) -> None:
        self.resolution_messages += n_messages
        tel = self.telemetry
        if tel is not None:
            m = tel.metrics
            m.counter("probe.resolution_messages").inc(n_messages)
            m.gauge("probe.tables").set(len(self._tables))

    def selection_plan(
        self, hop_candidates: Sequence[Sequence[int]]
    ) -> List[Tuple[np.ndarray, np.ndarray, bool]]:
        """Pre-flatten a selection walk's candidate lists, once.

        ``_select_walk`` resolves the suffix ``hop_candidates[i:]`` at hop
        ``i``; entry ``i`` of the plan is that suffix as one block, ``(ids,
        prio, distinct)``: the flattened ids, each one's priority as a
        *direct* relation of that hop's selector (``2 * hop``; an indirect
        one is 1 more) and whether no id repeats in the block -- decided
        here, once per walk, so the table merge groups duplicates only when
        there are any.
        """
        lens = [len(c) for c in hop_candidates]
        flat = np.fromiter(chain.from_iterable(hop_candidates), np.int64, sum(lens))
        prio = np.repeat(np.arange(2, 2 * len(lens) + 2, 2), lens)
        plan, seen, start = [], set(), len(flat)
        for i in range(len(lens) - 1, -1, -1):
            start -= lens[i]
            seen.update(hop_candidates[i])
            plan.append(
                (flat[start:], prio[start:] - 2 * i, len(seen) == len(flat) - start)
            )
        plan.reverse()
        return plan

    def resolve_selection_hops(
        self,
        observer: int,
        hop_candidates: Sequence[Sequence[int]],
        direct: bool,
        plan: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None,
    ) -> Optional[np.ndarray]:
        """Resolve the candidate providers of the next hops at ``observer``.

        ``hop_candidates[i]`` are the peers able to provide the service
        ``i+1`` hops away from the observer (reverse flow direction).
        ``direct=True`` when the observer is the requesting host itself
        (its own application), ``False`` for peers along someone else's
        path (indirect neighbors).  ``plan`` is this hop's entry of
        :meth:`selection_plan`, when the caller flattened the walk.

        The whole flood -- every candidate but the observer itself, hop
        ``i + 1`` for ``hop_candidates[i]`` -- is one block merge into the
        observer's table, and ``resolution_messages`` counts only the
        notifications that could change anything (``needed`` of
        :meth:`NeighborTable.merge`: not already-fresh soft state, not
        newcomers the budget cannot hold).

        Returns the positions in ``hop_candidates[0]`` (ascending) the
        observer now holds an active entry for -- what the merge learned
        about the hop about to be selected, for ``observe_block(known=)``
        -- or ``None`` when it cannot say (the observer or a repeat among
        those candidates) and the selector must look up.
        """
        if plan is None:
            plan = self.selection_plan(hop_candidates)[0]
        flat, prio, distinct = plan
        lead = len(hop_candidates[0])
        own = flat == observer
        if np.count_nonzero(own):
            if np.count_nonzero(own[:lead]):
                lead = 0
            keep = ~own
            flat, prio = flat[keep], prio[keep]
        if not len(flat):
            return None
        tbl = self._tables.get(observer)
        if tbl is None:
            tbl = NeighborTable(self.config.budget)
        _, needed, known = tbl.merge(
            flat, prio if direct else prio + 1,
            self.sim.now, self.config.ttl, lead, distinct,
        )
        if needed:
            self._tables[observer] = tbl
            self._count_resolution(needed)
        return known

    def drop_peer(self, peer_id: int) -> None:
        """Forget a departed peer everywhere (lazy tables stay lazy)."""
        self._tables.pop(peer_id, None)
        inj = self.injector
        if inj is None or not inj.ghost_active(peer_id):
            self._snapshots.pop(peer_id, None)
        # A ghost-active peer keeps its last snapshot: the stale_state
        # fault makes observers serve it until the lingering soft state
        # expires.  Entries pointing *to* the departed peer are pruned
        # lazily on observe() (observers discover the death on probe).

    # -- the PerformanceView protocol -------------------------------------
    def _record_probe(self) -> None:
        self.probe_messages += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("probe.messages_sent").inc()

    def _take_snapshot(self, peer, target: int, epoch: int) -> _Snapshot:
        snap = _Snapshot(
            epoch=epoch,
            availability=peer.available.values.copy(),
            avail_up=peer.avail_up,
            uptime=peer.uptime(self.sim.now),
        )
        self._snapshots[target] = snap
        tel = self.telemetry
        if tel is not None:
            tel.bus.emit("probe.refresh", target=target, epoch=epoch)
        return snap

    def _snapshot(self, target: int):
        """The current-epoch snapshot of ``target``.

        Returns ``None`` when the peer is dead, the sentinel ``_LOST``
        when the probe failed this epoch but the peer may still be
        alive, or a (possibly stale) :class:`_Snapshot` otherwise.
        """
        peer = self.directory.get(target)
        if peer is None or not peer.alive:
            return None
        epoch = int(self.sim.now / self.config.period)
        snap = self._snapshots.get(target)
        if snap is not None and snap.epoch == epoch:
            return snap
        inj = self.injector
        if inj is None:
            self._record_probe()
            return self._take_snapshot(peer, target, epoch)
        return self._probe_with_faults(peer, target, epoch, snap, inj)

    def _probe_with_faults(self, peer, target, epoch, prev, inj):
        """One refresh under fault injection: timeout, retry, degrade."""
        retry = self.config.retry
        attempts = 0
        while True:
            self._record_probe()
            lost = inj.probe_lost(target)
            if not lost:
                delay = inj.probe_delay(target)
                if delay <= self.config.timeout:
                    return self._take_snapshot(peer, target, epoch)
                # The reply missed the timeout window: count as a loss.
            attempts += 1
            if attempts > retry.max_retries:
                inj.retry_exhausted("probe", attempts=attempts, target=target)
                if prev is not None:
                    # Degrade to the previous epoch's values; marking the
                    # current epoch avoids re-burning the budget on every
                    # observe() within it.
                    prev.epoch = epoch
                    prev.stale = True
                    return prev
                return _LOST
            inj.retry_attempt(
                "probe", attempts, retry.delay(attempts, inj.rng),
                target=target,
            )

    def _refresh_rows(
        self, targets: np.ndarray, rows: np.ndarray, epoch: int
    ) -> None:
        """Probe ``targets`` (store ``rows``) into the epoch snapshot.

        One probe message and one ``probe.refresh`` event per distinct
        target, in block order -- the accounting of a per-target refresh.
        """
        if len(rows) > 1 and len(set(rows.tolist())) < len(rows):
            first = np.unique(rows, return_index=True)[1]
            first.sort()
            targets, rows = targets[first], rows[first]
        store = self._store
        store.snap_avail[rows] = store.available[rows]
        store.snap_up[rows] = store.avail_up[rows]
        store.snap_uptime[rows] = np.maximum(
            self.sim.now - store.joined_at[rows], 0.0
        )
        store.snap_epoch[rows] = epoch
        self.probe_messages += len(rows)
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("probe.messages_sent").inc(len(rows))
            for target in targets.tolist():
                tel.bus.emit("probe.refresh", target=target, epoch=epoch)

    def observe(self, observer: int, target: int) -> Optional[PeerInfo]:
        """The observer's (stale, bounded) view of target; None if unknown."""
        if self._store is not None and self.injector is None:
            block = self.observe_block(observer, (target,), latency=True)
            if not len(block[0]):
                return None
            return self._peer_info(target, *(column[0] for column in block[1:]))
        tbl = self._tables.get(observer)
        if tbl is None:
            return None
        entry = tbl.get(target, self.sim.now)
        if entry is None:
            return None
        inj = self.injector
        if inj is not None and inj.partitioned(observer, target):
            # The probe cannot cross the cut; the entry stays (soft
            # state survives a partition, unlike a discovered death).
            inj.inject("partition", "probe", observer=observer, target=target)
            return None
        snap = self._snapshot(target)
        if snap is _LOST:
            return None  # probe failed; keep the entry, report unknown
        if snap is None and inj is not None and inj.ghost_active(target):
            # stale_state fault: the departure has not propagated yet, so
            # the observer still trusts the last snapshot it holds.
            snap = self._snapshots.get(target)
        if snap is None:
            tbl.drop(target)  # probe discovered the departure
            self._snapshots.pop(target, None)
            return None
        observer_peer = self.directory.get(observer)
        observer_down = (
            observer_peer.avail_down if observer_peer is not None else float("inf")
        )
        pair_avail = self.network.pair_capacity(target, observer) - (
            self.network.pair_reserved(target, observer)
        )
        beta = max(0.0, min(pair_avail, snap.avail_up, observer_down))
        return self._peer_info(
            target, snap.availability, beta, snap.uptime,
            self.network.latency_ms(target, observer),
        )

    def _peer_info(self, target, values, beta, uptime, latency) -> PeerInfo:
        # Fast-path ResourceVector construction: this runs for every
        # candidate of every scalar hop, and snapshot arrays are read-only
        # by contract, so skip the validating constructor and the copy.
        availability = ResourceVector.__new__(ResourceVector)
        availability.names = self.directory.resource_names
        availability.values = values
        return PeerInfo(target, availability, beta, uptime, latency)

    def observe_block(
        self,
        observer: int,
        targets: Sequence[int],
        latency: bool = False,
        known: Optional[np.ndarray] = None,
    ) -> Optional[ObservedBlock]:
        """Array form of :meth:`observe` over one candidate list.

        An :data:`~repro.core.selection.ObservedBlock`; its latencies
        are ``None`` unless asked for -- the default Φ never reads them,
        and deriving one costs a hash per first-seen pair.  Values are
        bitwise-identical to what the per-target :meth:`observe` chain
        produces, and so are the side effects (expired/departed entries
        pruned, stale rows probed once, in target order).  ``known`` is
        what :meth:`resolve_selection_hops` just returned for these
        targets at this observer; without it the table is searched.
        ``None`` when the array plane is unavailable (object directory
        or fault injection); callers fall back to :meth:`observe`.
        """
        store = self._store
        if store is None or self.injector is not None:
            return None
        ids = np.fromiter(targets, np.int64, len(targets))
        if known is None:
            tbl = self._tables.get(observer)
            known = tbl.lookup(ids, self.sim.now) if tbl is not None else ids[:0]
        ids = ids[known]
        rows = self.directory.rows_for(ids)
        departed = rows < 0
        if np.count_nonzero(departed):
            tbl = self._tables[observer]
            for target in ids[departed].tolist():
                tbl.drop(target)  # probe discovered the departure
            known, ids, rows = known[~departed], ids[~departed], rows[~departed]
        epoch = int(self.sim.now / self.config.period)
        stale = store.snap_epoch[rows] != epoch
        if np.count_nonzero(stale):
            self._refresh_rows(ids[stale], rows[stale], epoch)
        betas = self.network.available_bandwidth_batch(
            ids, observer, uplinks=store.snap_up[rows]
        )
        return (
            known,
            store.snap_avail[rows],
            betas,
            store.snap_uptime[rows],
            self.network.pair_latencies(observer, ids) if latency else None,
        )

    # -- overhead metrics ------------------------------------------------------
    def overhead_ratio(self) -> float:
        """Mean neighbors probed per peer / population size.

        The paper controls this to ``M / N`` (= 1% at M=100, N=10^4).
        """
        n = self.directory.n_alive
        if n == 0 or not self._tables:
            return 0.0
        mean_table = sum(len(t) for t in self._tables.values()) / len(self._tables)
        return mean_table / n

    @property
    def n_tables(self) -> int:
        return len(self._tables)

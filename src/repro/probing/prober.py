"""The probing service: stale-by-one-epoch performance views.

Implements the :class:`~repro.core.selection.PerformanceView` protocol on
top of per-peer :class:`~repro.probing.neighbors.NeighborTable`\\ s.

Semantics
---------
* ``observe_block(observer, targets)`` returns information only about the
  targets that are active neighbors of ``observer`` -- the scalability
  constraint of §2.2 (no peer knows more than ``M`` others);
  ``observe(observer, target)`` is its one-target view.
* The returned state is the target's state **as of the start of the
  current probing epoch** (``epoch = floor(now / period)``): a periodic
  prober refreshes once per period, so every observer within an epoch
  sees the same, possibly stale snapshot.  Snapshots live in the peer
  store's ``snap_*`` arrays and are taken lazily on first access per
  epoch, making the simulation cost proportional to queries rather than
  ``peers x neighbors x epochs``.
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
exceeds :data:`PROBE_TIMEOUT` counts as lost; lost attempts retry under
the injector's backoff rule
(:meth:`~repro.faults.injector.FaultInjector.retry_delay`).  When the
retry budget runs dry the prober degrades instead of failing: it
keeps serving the previous epoch's snapshot row (re-stamped, values
kept) or, with no snapshot to fall back on, reports the target as
unknown -- which sends the selector down its plain random-fallback path.
The backoff delays are virtual (the setup exchange is synchronous); they
are recorded on ``retry.attempt`` telemetry events rather than the sim
clock.  A partition is a mask over the observer's known candidates, and
a departed peer whose soft state lingers (``stale_state``) keeps serving
the last snapshot row the prober copied out when it left.  Faults only
change *which* candidates are known: the faulted hop is the same array
hop (:meth:`ProbingService._observe_faulted`).  The scalar plane this
replaced is the executable spec in ``tests/probing/reference_prober.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, count
from operator import is_
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector
from repro.core.selection import ObservedBlock, PeerInfo
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.probing.neighbors import PRIO_DTYPE, NeighborTable
from repro.sim.engine import Simulator

__all__ = ["PROBE_TIMEOUT", "ProbingConfig", "ProbingService", "SelectionPlan"]

#: A probe attempt slower than this (minutes) counts as lost.
PROBE_TIMEOUT = 0.25

#: One hop of a :class:`SelectionPlan`: ``(ids, prio, first)``.
PlanEntry = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


@dataclass(frozen=True)
class ProbingConfig:
    """Probing parameters (defaults mirror §4.1: ``M = 100``)."""

    #: Max neighbors any peer maintains/probes (the paper's ``M``).
    budget: int = 100
    #: Probe period in minutes (information staleness bound).
    period: float = 1.0
    #: Soft-state TTL for neighbor entries, minutes.
    ttl: float = 10.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("probe period must be positive")
        if self.ttl <= 0:
            raise ValueError("neighbor TTL must be positive")


class SelectionPlan(Sequence[PlanEntry]):
    """A selection walk's candidate lists, flattened once.

    ``_select_walk`` resolves the suffix ``hosts[i:]`` at hop ``i``;
    entry ``i`` of the plan is that suffix as one block, ``(ids, prio,
    first)``: the flattened ids, each one's priority as a *direct*
    relation of that hop's selector (``2 * hop``; an indirect one is 1
    more) and which of them is its id's first occurrence in the block --
    ``None`` when no id repeats in it.  Its ids begin with hop ``i``'s
    own candidates.

    The repeats are found here, once per plan: one stable sort of the
    flattened ids gives each position ``j`` the last earlier position
    naming the same id, ``prev[j]`` (-1 if none), and the suffix starting
    at ``start`` sees ``j`` first exactly when ``prev[j] < start``.  The
    table merge keeps newcomers by that mask instead of grouping the
    repeats again at every hop.

    A plan is a pure function of the candidate lists, so a caller may
    keep one while they stay the same objects (:meth:`built_from`).  It
    stores the flattened ids, the first hop's priorities and the masks
    as read-only arrays and slices every later entry on demand:
    :attr:`nbytes` is 9 bytes per flattened id (an ``int64`` id and an
    ``int8`` priority, the table's own types, so a merge never casts),
    plus one per id of each masked suffix.  A walk of more than 63 hops
    would overflow the priority, and raises.
    """

    __slots__ = ("hosts", "flat", "prio", "_starts", "_firsts")

    def __init__(self, hop_candidates: Sequence[Sequence[int]]) -> None:
        #: The candidate lists the plan was built from, as given.
        self.hosts = tuple(hop_candidates)
        lens = [len(c) for c in self.hosts]
        if 2 * len(lens) + 1 > np.iinfo(PRIO_DTYPE).max:
            raise OverflowError(f"a {len(lens)}-hop walk overflows the priority")
        flat = np.fromiter(chain.from_iterable(self.hosts), np.int64, sum(lens))
        prio = np.repeat(
            np.arange(2, 2 * len(lens) + 2, 2, dtype=PRIO_DTYPE), lens
        )
        starts = [0, *accumulate(lens)]
        order = flat.argsort(kind="stable")
        grouped = flat[order]
        again = grouped[1:] == grouped[:-1]
        # The masks of the leading hops whose suffix repeats an id.
        firsts = []
        if np.count_nonzero(again):
            prev = np.full(len(flat), -1)
            prev[order[1:][again]] = order[:-1][again]
            for start in starts[:-1]:
                first = prev[start:] < start
                if np.count_nonzero(first) == len(first):
                    break  # so is every later suffix
                first.setflags(write=False)
                firsts.append(first)
        flat.setflags(write=False)
        prio.setflags(write=False)
        self.flat, self.prio = flat, prio
        self._starts = starts
        self._firsts = tuple(firsts)

    def __len__(self) -> int:
        return len(self.hosts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self.hosts)
        if not 0 <= i < len(self.hosts):
            raise IndexError("selection plan index out of range")
        first = self._firsts[i] if i < len(self._firsts) else None
        if not i:
            return self.flat, self.prio, first
        start = self._starts[i]
        return self.flat[start:], self.prio[start:] - 2 * i, first

    def built_from(self, hop_candidates: Sequence[Sequence[int]]) -> bool:
        """Whether ``hop_candidates`` are the very lists (``is``, not
        ``==``) this plan was built from."""
        hosts = self.hosts
        return len(hop_candidates) == len(hosts) and all(
            map(is_, hop_candidates, hosts)
        )

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the plan holds (the candidate lists are
        the caller's)."""
        return sum(a.nbytes for a in (self.flat, self.prio, *self._firsts))


class ProbingService:
    """Bounded-neighborhood, epoch-snapshotted performance information."""

    def __init__(
        self,
        sim: Simulator,
        directory: SoAPeerDirectory,
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
        #: The directory's peer store: epoch snapshots live in its
        #: ``snap_*`` arrays, refreshed per neighbor block.
        self._store = directory.store
        #: ``(availability, uplink, uptime)`` last snapshot rows of departed
        #: peers whose soft state lingers (``stale_state`` faults), by peer
        #: id; released when the ghost expires.
        self._ghost_rows: Dict[int, Tuple[np.ndarray, float, float]] = {}
        #: The leading candidates of the last resolve and their ids as an
        #: array (a view into its block); see :meth:`observe_block`.
        self._lead: Tuple[Optional[Sequence[int]], Optional[np.ndarray]] = (
            None, None
        )
        self.probe_messages = 0
        self.resolution_messages = 0

    # -- neighbor resolution (paper §3.3) ------------------------------------
    def _count_resolution(self, n_messages: int) -> None:
        self.resolution_messages += n_messages
        tel = self.telemetry
        if tel is not None:
            m = tel.metrics
            m.counter("probe.resolution_messages").inc(n_messages)
            m.gauge("probe.tables").set(len(self._tables))

    def selection_plan(
        self, hop_candidates: Sequence[Sequence[int]]
    ) -> SelectionPlan:
        """Pre-flatten a selection walk's candidate lists, once: the
        :class:`SelectionPlan` of ``hop_candidates``, whose entry ``i`` is
        the resolve block of hop ``i``."""
        return SelectionPlan(hop_candidates)

    def resolve_selection_hops(
        self,
        observer: int,
        hop_candidates: Sequence[Sequence[int]],
        direct: bool,
        plan: Optional[PlanEntry] = None,
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
        flat, prio, first = plan
        lead = len(hop_candidates[0])
        if type(hop_candidates[0]) is tuple:
            # The hop's own ids lead the block: ``observe_block`` is asked
            # about that (immutable) tuple next.
            self._lead = hop_candidates[0], flat[:lead]
        own = flat == observer
        if np.count_nonzero(own):
            if np.count_nonzero(own[:lead]):
                lead = 0
            keep = ~own
            flat, prio = flat[keep], prio[keep]
            if first is not None:
                first = first[keep]  # every occurrence of one id goes
        if not len(flat):
            return None
        tbl = self._tables.get(observer)
        if tbl is None:
            tbl = NeighborTable(self.config.budget)
        _, needed, known = tbl.merge(
            flat, prio if direct else prio + 1,
            self.sim.now, self.config.ttl, lead, first,
        )
        if needed:
            self._tables[observer] = tbl
            self._count_resolution(needed)
        return known

    def drop_peer(self, peer_id: int) -> None:
        """Forget a departing peer everywhere (lazy tables stay lazy).

        Runs before ``directory.depart`` frees the peer's store row.  Entries
        pointing *to* the peer are pruned lazily by ``observe_block``
        (observers discover the death on probe) -- unless a ``stale_state``
        fault left its soft state lingering: then the last snapshot row is
        copied out here and served until the ghost expires.  Rows of ghosts
        that have expired are released here too, observed again or not.
        """
        self._tables.pop(peer_id, None)
        inj = self.injector
        if inj is None:
            return
        ghosts = self._ghost_rows
        for pid in [p for p in ghosts if not inj.ghost_active(p)]:
            del ghosts[pid]
        store, row = self._store, self.directory.row_of(peer_id)
        if row >= 0 and store.snap_epoch[row] >= 0 and inj.ghost_active(peer_id):
            ghosts[peer_id] = (
                store.snap_avail[row].copy(),
                float(store.snap_up[row]),
                float(store.snap_uptime[row]),
            )

    # -- the PerformanceView protocol -------------------------------------
    def _record_probe(self) -> None:
        self.probe_messages += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("probe.messages_sent").inc()

    def _snapshot_rows(self, rows: np.ndarray, epoch: int) -> None:
        """Copy the live state of (distinct) store ``rows`` into the epoch
        snapshot."""
        store = self._store
        store.snap_avail[rows] = store.available.take(rows, axis=0)
        store.snap_up[rows] = store.avail_up[rows]
        store.snap_uptime[rows] = np.maximum(
            self.sim.now - store.joined_at[rows], 0.0
        )
        store.snap_epoch[rows] = epoch

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
        self._snapshot_rows(rows, epoch)
        self.probe_messages += len(rows)
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("probe.messages_sent").inc(len(rows))
            for target in targets.tolist():
                tel.bus.emit("probe.refresh", target=target, epoch=epoch)

    def _probe_with_faults(self, target: int, epoch: int, inj) -> bool:
        """The messages of one refresh under fault injection: timeout,
        retry, give up.  True when a probe got through."""
        tel = self.telemetry
        for attempt in count(1):
            self._record_probe()
            # A reply that misses the timeout window counts as a loss.
            if not inj.probe_lost(target) and (
                inj.probe_delay(target) <= PROBE_TIMEOUT
            ):
                break
            if inj.retry_delay("probe", attempt, target=target) is None:
                return False
        if tel is not None:
            tel.bus.emit("probe.refresh", target=target, epoch=epoch)
        return True

    def _observe_faulted(
        self, observer: int, known: np.ndarray, ids: np.ndarray,
        rows: np.ndarray, epoch: int, inj,
    ) -> Tuple[np.ndarray, ...]:
        """The departed check and refresh of :meth:`observe_block` with an
        injector attached; returns ``(known, ids, avail, uplinks, uptimes)``.

        Faults only change which of the known candidates stay known.  The
        partition cut is a mask applied first (a candidate across it is
        neither probed nor dropped); a departed candidate stays while its
        ghost row does; stale ones are probed one by one in block order,
        so each target's ``fault.injected`` / ``retry.*`` /
        ``probe.refresh`` events are contiguous.  A probe that gives up
        re-stamps the row's previous snapshot (values kept) or, with none,
        leaves the target unknown and unstamped; the rows whose probe got
        through are copied in one block afterwards.
        """
        store = self._store
        snap_epoch = store.snap_epoch
        cut = inj.cut_mask(observer, ids)
        alive = rows >= 0
        keep = alive & ~cut
        gone = ~(alive | cut)
        if np.count_nonzero(gone):
            tbl = self._tables[observer]
            for j in gone.nonzero()[0].tolist():
                target = int(ids[j])
                if inj.ghost_active(target) and target in self._ghost_rows:
                    keep[j] = True
                else:
                    tbl.drop(target)  # probe discovered the departure
        todo = cut | (alive & (snap_epoch[rows] != epoch))
        fresh = []
        for j, target, row in zip(
            todo.nonzero()[0].tolist(), ids[todo].tolist(), rows[todo].tolist()
        ):
            if cut[j]:
                inj.inject("partition", "probe", observer=observer, target=target)
            # Re-read the stamp: an earlier repeat of this target in the
            # block may have settled it.
            elif snap_epoch[row] != epoch:
                if self._probe_with_faults(target, epoch, inj):
                    fresh.append(row)
                elif snap_epoch[row] < 0:
                    keep[j] = False
                    continue
                snap_epoch[row] = epoch
        if fresh:
            self._snapshot_rows(np.array(fresh), epoch)
        known, ids, rows = known[keep], ids[keep], rows[keep]
        avail, uplinks, uptimes = (
            store.snap_avail[rows], store.snap_up[rows], store.snap_uptime[rows]
        )
        for j in (rows < 0).nonzero()[0].tolist():  # ghosts
            avail[j], uplinks[j], uptimes[j] = self._ghost_rows[int(ids[j])]
        return known, ids, avail, uplinks, uptimes

    def observe(self, observer: int, target: int) -> Optional[PeerInfo]:
        """The observer's (stale, bounded) view of target, ``None`` if
        unknown: the one-target view of :meth:`observe_block`."""
        block = self.observe_block(observer, (target,), latency=True)
        if not len(block[0]):
            return None
        availability = ResourceVector(self.directory.resource_names, block[1][0])
        return PeerInfo(target, availability, *(col[0] for col in block[2:]))

    def observe_block(
        self,
        observer: int,
        targets: Sequence[int],
        latency: bool = False,
        known: Optional[np.ndarray] = None,
    ) -> ObservedBlock:
        """What ``observer`` knows about one candidate list.

        An :data:`~repro.core.selection.ObservedBlock`; its latencies
        are ``None`` unless asked for -- the default Φ never reads them,
        so the default run never derives them.  Side effects:
        expired/departed entries are pruned and stale rows probed once,
        in target order.  ``known`` is what :meth:`resolve_selection_hops`
        just returned for these targets at this observer; without it the
        table is searched.  When ``targets`` is the very tuple the last
        resolve led with, its ids are read off that resolve's block.
        """
        store = self._store
        lead, ids = self._lead
        if targets is not lead:
            ids = np.fromiter(targets, np.int64, len(targets))
        if known is None:
            tbl = self._tables.get(observer)
            known = tbl.lookup(ids, self.sim.now) if tbl is not None else ids[:0]
        ids = ids[known]
        rows = self.directory.rows_for(ids)
        epoch = int(self.sim.now / self.config.period)
        inj = self.injector
        if inj is not None:
            known, ids, avail, uplinks, uptimes = self._observe_faulted(
                observer, known, ids, rows, epoch, inj
            )
        else:
            departed = rows < 0
            if np.count_nonzero(departed):
                tbl = self._tables[observer]
                for target in ids[departed].tolist():
                    tbl.drop(target)  # probe discovered the departure
                known, ids, rows = known[~departed], ids[~departed], rows[~departed]
            stale = store.snap_epoch[rows] != epoch
            if np.count_nonzero(stale):
                self._refresh_rows(ids[stale], rows[stale], epoch)
            avail, uplinks, uptimes = (
                store.snap_avail.take(rows, axis=0),
                store.snap_up[rows],
                store.snap_uptime[rows],
            )
        betas = self.network.available_bandwidth_batch(ids, observer, uplinks)
        return (
            known,
            avail,
            betas,
            uptimes,
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

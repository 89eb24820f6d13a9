"""Struct-of-arrays peer state: the one peer-state representation.

One Python object per host would make every hot plane -- candidate
selection, prober snapshot refresh, admission accounting -- a Python
loop over objects.  This module stores per-peer state as contiguous
numpy arrays (:class:`PeerStore`), and those rows are the only peer
state there is.  :class:`SoAPeerDirectory` owns the id space and holds
each ledger rule exactly once, as one operation by peer id; a
read-only :class:`PeerRowView` is made on demand for callers that want
one alive peer at a time.  The dict-of-objects directory this replaced
is the model in ``tests/network/reference_directory.py``.

Layout
------
:class:`PeerStore` owns, per row:

* ``capacity``/``available`` -- ``(rows, m)`` end-system resource
  matrices (``available`` is the admission ledger's debit target),
* ``access_bw``/``avail_up``/``avail_down`` -- access-link state,
* ``joined_at``/``departed_at``/``alive`` -- uptime + occupancy,
* ``snap_*`` -- the prober's soft-state freshness plane: per-row
  epoch-snapshotted availability/uplink/uptime and the epoch stamp
  that makes a snapshot current (see ``probing/prober.py``).

Rows are recycled through a free list when peers depart; ``generation``
bumps on every membership change, so anything holding row indices can
cheaply detect staleness.

Ledger rules
------------
* :meth:`SoAPeerDirectory.reserve` debits ``R`` if it fits,
  :meth:`SoAPeerDirectory.release` credits it back and raises
  ``ValueError`` past capacity;
* :meth:`SoAPeerDirectory.reserve_link` debits an uplink and a
  downlink with 1e-9 slack, :meth:`SoAPeerDirectory.release_link`
  credits them capped at ``access_bw``.

Departure semantics
-------------------
A departing peer takes its resources with it: its row returns to the
free list and nothing of it is kept.  Afterwards its id is "not alive"
to every operation -- ``get`` answers ``None``, a debit fails, and a
credit (a late rollback, a repair dropping a dead peer's connections)
is dropped, so no credit can ever reach a recycled row.  Ids are never
reused.  (The stale-state fault's last snapshot is the prober's to
keep: ``ProbingService.drop_peer``.)
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector

__all__ = ["PeerStore", "PeerRowView", "SoAPeerDirectory"]


def _vector(names: Tuple[str, ...], values: np.ndarray) -> ResourceVector:
    """A :class:`ResourceVector` over ``values`` as they are (no copy and
    no validation: the values are a store row or a copy of one)."""
    rv = ResourceVector.__new__(ResourceVector)
    rv.names = names
    rv.values = values
    return rv


def _doubled(index: np.ndarray, need: int) -> np.ndarray:
    """``index`` (an int64 row index) doubled until it holds ``need``
    entries, -1 padded (as many single doublings would leave it)."""
    size = len(index)
    if size >= need:
        return index
    while size < need:
        size *= 2
    grown = np.full(size, -1, dtype=np.int64)
    grown[: len(index)] = index
    return grown


class PeerStore:
    """Contiguous per-peer state arrays with row recycling.

    Rows are allocated by :meth:`alloc_rows` (free list first, then the
    append cursor; arrays grow by doubling) and returned by
    :meth:`free_row`.  ``generation`` increments on every allocated row
    and every free.
    """

    def __init__(self, resource_names: Sequence[str], initial_rows: int = 256) -> None:
        self.resource_names = tuple(resource_names)
        rows = max(int(initial_rows), 16)
        m = len(self.resource_names)
        self.capacity = np.zeros((rows, m), dtype=np.float64)
        self.available = np.zeros((rows, m), dtype=np.float64)
        self.access_bw = np.zeros(rows, dtype=np.float64)
        self.avail_up = np.zeros(rows, dtype=np.float64)
        self.avail_down = np.zeros(rows, dtype=np.float64)
        self.joined_at = np.zeros(rows, dtype=np.float64)
        self.departed_at = np.full(rows, np.nan, dtype=np.float64)
        self.alive = np.zeros(rows, dtype=bool)
        # -- prober soft-state freshness plane ---------------------------
        #: Epoch stamp of the row's snapshot; -1 = never snapshotted
        #: (reset on row recycling so a reused row can never serve a
        #: prior tenant's state).
        self.snap_epoch = np.full(rows, -1, dtype=np.int64)
        self.snap_avail = np.zeros((rows, m), dtype=np.float64)
        self.snap_up = np.zeros(rows, dtype=np.float64)
        self.snap_uptime = np.zeros(rows, dtype=np.float64)
        #: Membership generation (bumped on alloc/free) -- the PR-4
        #: invalidation discipline for anything caching row indices.
        self.generation = 0
        #: Lifetime counters (capability/status reporting).
        self.rows_recycled = 0
        self._free: List[int] = []
        self._high = 0  # append cursor / high-water mark

    # -- row lifecycle ---------------------------------------------------
    @property
    def row_capacity(self) -> int:
        return len(self.access_bw)

    @property
    def n_rows(self) -> int:
        """Occupied rows (== alive peers)."""
        return self._high - len(self._free)

    def _grow(self, min_rows: int) -> None:
        new = self.row_capacity
        while new < min_rows:
            new *= 2
        for name in (
            "capacity", "available", "access_bw", "avail_up", "avail_down",
            "joined_at", "departed_at", "alive",
            "snap_epoch", "snap_avail", "snap_up", "snap_uptime",
        ):
            old = getattr(self, name)
            shape = (new,) + old.shape[1:]
            fresh = np.zeros(shape, dtype=old.dtype)
            if name == "departed_at":
                fresh.fill(np.nan)
            elif name == "snap_epoch":
                fresh.fill(-1)
            fresh[: len(old)] = old
            setattr(self, name, fresh)

    def alloc_rows(self, n: int) -> np.ndarray:
        """``n`` rows, in the order ``n`` single allocations would take
        them: the free list last-freed first, then the append cursor."""
        free = self._free
        k = min(n, len(free))
        high = self._high + n - k
        if high > self.row_capacity:
            self._grow(high)
        rows = np.arange(high - n, high)
        if k:
            rows[:k] = free[len(free) - k :][::-1]
            del free[len(free) - k :]
            self.rows_recycled += k
        self._high = high
        self.generation += n
        return rows

    def free_row(self, row: int) -> None:
        self.alive[row] = False
        self.snap_epoch[row] = -1
        self._free.append(row)
        self.generation += 1

    def init_rows(
        self,
        rows: np.ndarray,
        capacity: np.ndarray,
        access_bw: np.ndarray | float,
        joined_at: np.ndarray,
    ) -> None:
        """Fresh state in ``rows``: ``capacity`` holds one row per peer,
        ``(n, m)``, or one scale per peer that every dimension shares."""
        if capacity.ndim == 1:
            capacity = capacity[:, None]
        self.capacity[rows] = capacity
        self.available[rows] = capacity
        self.access_bw[rows] = access_bw
        self.avail_up[rows] = access_bw
        self.avail_down[rows] = access_bw
        self.joined_at[rows] = joined_at
        self.departed_at[rows] = np.nan
        self.alive[rows] = True
        self.snap_epoch[rows] = -1

    # -- introspection ---------------------------------------------------
    def memory_bytes(self) -> int:
        """Total bytes held by the state arrays (capability reporting)."""
        return sum(
            getattr(self, name).nbytes
            for name in (
                "capacity", "available", "access_bw", "avail_up",
                "avail_down", "joined_at", "departed_at", "alive",
                "snap_epoch", "snap_avail", "snap_up", "snap_uptime",
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PeerStore {self.n_rows}/{self.row_capacity} rows, "
            f"gen={self.generation}, {self.memory_bytes()} B>"
        )


class PeerRowView:
    """A read-only view of one alive peer's :class:`PeerStore` row.

    :meth:`SoAPeerDirectory.get` makes one on demand and keeps none.
    Every property reads through the store (buffer growth can never
    leave a stale alias) and returns a copy: the rows change only
    through the directory's ledger operations.
    """

    __slots__ = ("peer_id", "_store", "_row")

    def __init__(self, peer_id: int, store: PeerStore, row: int) -> None:
        self.peer_id = peer_id
        self._store = store
        self._row = row

    @property
    def capacity(self) -> ResourceVector:
        store = self._store
        return _vector(store.resource_names, store.capacity[self._row].copy())

    @property
    def available(self) -> ResourceVector:
        store = self._store
        return _vector(store.resource_names, store.available[self._row].copy())

    @property
    def access_bw(self) -> float:
        return self._store.access_bw.item(self._row)

    @property
    def avail_up(self) -> float:
        return self._store.avail_up.item(self._row)

    @property
    def avail_down(self) -> float:
        return self._store.avail_down.item(self._row)

    @property
    def joined_at(self) -> float:
        return self._store.joined_at.item(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PeerRowView {self.peer_id} row={self._row} "
            f"avail={self._store.available[self._row]}>"
        )


class SoAPeerDirectory:
    """The id space and alive set of the grid, on a :class:`PeerStore`.

    Every change to a peer's ledgers is one operation here by peer id
    (:meth:`reserve`/:meth:`release` for the end-system vector,
    :meth:`reserve_link`/:meth:`release_link` for the access links);
    :attr:`store` plus vectorized row resolution let the hot planes
    (selection, probing) read the rows directly.
    """

    def __init__(
        self,
        resource_names: Sequence[str] = ("cpu", "memory"),
        initial_rows: int = 256,
    ) -> None:
        self.resource_names = tuple(resource_names)
        self.store = PeerStore(resource_names, initial_rows)
        #: pid -> row for alive peers; -1 once departed (grown with ids).
        self._row_of = np.full(max(initial_rows, 16), -1, dtype=np.int64)
        #: Alive ids, ascending (ids are allocated monotonically), and
        #: their store rows in the aligned prefix of a doubling buffer;
        #: every create/depart keeps the two in step.
        self._alive_ids: List[int] = []
        self._alive_rows = np.full(max(initial_rows, 16), -1, dtype=np.int64)
        self._next_id = 0
        #: Optional :class:`repro.sim.sanitizer.Sanitizer` write barrier.
        self.sanitizer = None

    @property
    def generation(self) -> int:
        """Membership generation (the store's alloc/free counter)."""
        return self.store.generation

    # -- population ------------------------------------------------------
    def create_peers(
        self,
        capacity: np.ndarray,
        access_bw: np.ndarray | float,
        joined_at: np.ndarray,
    ) -> range:
        """``len(joined_at)`` new alive peers with consecutive ids, as one
        block; returns the ids.

        ``capacity`` holds one scale per peer that every dimension
        shares, or one resource row per peer; ``access_bw`` is one link
        capacity for all of them or one per peer.  Rows, ids, the alive
        set, the generation and the ``peer-create`` writes (one per
        peer, stamped with the generation its own creation reached) are
        what as many :meth:`create_peer` calls would leave.
        """
        joined = np.asarray(joined_at, dtype=np.float64)
        n = len(joined)
        values = np.asarray(capacity, dtype=np.float64)
        access = np.asarray(access_bw, dtype=np.float64)
        first = self._next_id
        if n and values.min() < 0:
            raise ValueError(f"negative resource amounts: {values.min()}")
        if n and not access.min() > 0:  # NaN fails too
            bad = np.flatnonzero(~(np.broadcast_to(access, (n,)) > 0))[0]
            raise ValueError(
                f"peer {first + bad}: access bandwidth must be positive"
            )
        end = first + n
        if (end - 1) >> 28:  # a pair class keys the pair as ``lo << 28 | hi``
            raise OverflowError("peer ids must stay below 2**28")
        self._next_id = end
        rows = self.store.alloc_rows(n)
        self.store.init_rows(rows, values, access, joined)
        self._row_of = _doubled(self._row_of, end)
        self._row_of[first:end] = rows
        n_alive = len(self._alive_ids)
        self._alive_rows = _doubled(self._alive_rows, n_alive + n)
        self._alive_rows[n_alive : n_alive + n] = rows
        self._alive_ids.extend(range(first, end))
        if self.sanitizer is not None:
            gen = self.store.generation - n
            for i in range(1, n + 1):
                self.sanitizer.note_write("network", "peer-create", gen + i)
        return range(first, end)

    def create_peer(
        self, capacity: ResourceVector | float, access_bw: float, joined_at: float
    ) -> int:
        """A new alive peer's id: the one-element :meth:`create_peers`.
        ``capacity`` is its resource vector, or one scale that every
        dimension shares."""
        if isinstance(capacity, ResourceVector):
            values = capacity.values[None]
        else:
            values = np.array((capacity,), dtype=np.float64)
        return self.create_peers(values, access_bw, (joined_at,)).start

    def depart(self, peer_id: int, now: float) -> None:
        """Retire ``peer_id``: its row returns to the free list, and with
        it everything the peer held."""
        row = self.row_of(peer_id)
        if row < 0:
            if 0 <= peer_id < self._next_id:
                raise ValueError(f"peer {peer_id} already departed")
            raise KeyError(peer_id)
        self.store.departed_at[row] = now
        self.store.free_row(row)
        self._row_of[peer_id] = -1
        # Splice the id out of the ascending alive sequence (the order
        # the workload RNG indexes into) and its row out of the aligned
        # array: one bisect plus two C-speed shifts per departure.
        idx = bisect_left(self._alive_ids, peer_id)
        del self._alive_ids[idx]
        n_alive = len(self._alive_ids)
        self._alive_rows[idx:n_alive] = self._alive_rows[idx + 1 : n_alive + 1]
        if self.sanitizer is not None:
            self.sanitizer.note_write(
                "network", "peer-depart", self.store.generation
            )

    # -- lookup ----------------------------------------------------------
    def __getitem__(self, peer_id: int) -> PeerRowView:
        view = self.get(peer_id)
        if view is None:
            raise KeyError(peer_id)
        return view

    def get(self, peer_id: int) -> Optional[PeerRowView]:
        """A read-only view of an alive peer's row; ``None`` otherwise."""
        row = self.row_of(peer_id)
        return PeerRowView(int(peer_id), self.store, row) if row >= 0 else None

    def is_alive(self, peer_id: int) -> bool:
        return 0 <= peer_id < self._next_id and self._row_of[peer_id] >= 0

    # -- the ledger rules ------------------------------------------------
    def reserve(self, peer_id: int, requirement: ResourceVector) -> bool:
        """Debit ``requirement`` from an alive peer's availability if it
        fits; ``False`` (nothing debited) if not, or if not alive."""
        row = self.row_of(peer_id)
        if row < 0:
            return False
        avail = self.store.available[row]
        if not (avail >= requirement.values).all():
            return False
        avail -= requirement.values
        return True

    def release(self, peer_id: int, requirement: ResourceVector) -> None:
        """Credit ``requirement`` back; a departed peer's credit is
        dropped (its ledger left with it).  Raises ``ValueError`` when
        the credit lifts availability past capacity (a release that
        matches no reservation)."""
        row = self.row_of(peer_id)
        if row < 0:
            return
        store = self.store
        avail = store.available[row]
        avail += requirement.values
        if (avail > store.capacity[row] + 1e-9).any():
            raise ValueError(
                f"peer {peer_id}: release exceeds capacity "
                f"(avail={avail}, cap={store.capacity[row]})"
            )

    def reserve_link(self, src: int, dst: int, bw: float) -> bool:
        """Debit ``bw`` from ``src``'s uplink and ``dst``'s downlink, both
        or neither; ``False`` when either residual is short by more than
        1e-9 or either peer is not alive."""
        up_row, down_row = self.row_of(src), self.row_of(dst)
        store = self.store
        if (
            up_row < 0
            or down_row < 0
            or bw > store.avail_up[up_row] + 1e-9
            or bw > store.avail_down[down_row] + 1e-9
        ):
            return False
        store.avail_up[up_row] -= bw
        store.avail_down[down_row] -= bw
        return True

    def release_link(self, src: int, dst: int, bw: float) -> None:
        """Credit ``bw`` to ``src``'s uplink and ``dst``'s downlink, each
        capped at its access bandwidth; a departed end's credit is
        dropped."""
        store = self.store
        for residual, row in (
            (store.avail_up, self.row_of(src)),
            (store.avail_down, self.row_of(dst)),
        ):
            if row >= 0:
                residual[row] = min(residual[row] + bw, store.access_bw[row])

    # -- row resolution (the SoA fast-plane entry point) -----------------
    def row_of(self, peer_id: int) -> int:
        """The store row of ``peer_id``; -1 when departed or unknown."""
        if 0 <= peer_id < self._next_id:
            return int(self._row_of[peer_id])
        return -1

    def rows_for(self, peer_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``row_of`` (-1 marks departed/unknown ids)."""
        return self._row_of[peer_ids]

    # -- alive views ------------------------------------------------------
    @property
    def alive_ids(self) -> List[int]:
        """Ids of currently alive peers, ascending (maintained in place)."""
        return self._alive_ids

    def alive_rows(self) -> np.ndarray:
        """Store rows of the alive peers, aligned with :attr:`alive_ids`
        (a view: valid until the next membership change)."""
        return self._alive_rows[: len(self._alive_ids)]

    @property
    def n_alive(self) -> int:
        return len(self._alive_ids)

    def alive_peers(self) -> Iterator[PeerRowView]:
        return map(self.__getitem__, self.alive_ids)

    # -- vectorized views -------------------------------------------------
    def uptimes(self, now: float) -> Tuple[np.ndarray, List[int]]:
        """``(uptimes, ids)`` arrays over alive peers, aligned."""
        ids = self.alive_ids
        up = now - self.store.joined_at[self.alive_rows()]
        return up, ids

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SoAPeerDirectory {self.n_alive} alive / {self._next_id} total, "
            f"{self.store.memory_bytes()} B>"
        )

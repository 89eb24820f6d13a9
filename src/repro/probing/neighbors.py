"""Per-peer neighbor tables with benefit ordering and the M budget.

The table keeps at most ``budget`` entries.  When over budget it evicts
the *least beneficial* entries first, where benefit follows the paper's
probing order ("any peer first probes its 1-hop direct neighbors, then
1-hop indirect neighbors, then 2-hop direct neighbors and so on"):

    priority = 2 * hop + (0 if direct else 1)

(lower is better).  Ties are broken by recency -- fresher entries win.
Entries are soft state: each carries an expiry time and expired entries
are treated as absent (and lazily pruned when touched).

Layout: three parallel arrays in insertion order (``pids``, ``prio``,
``expires``; hop and directness are the two halves of the priority), so
one selection hop resolves and looks up its whole candidate block with a
handful of array operations.  A row is 17 bytes: an ``int64`` id (the
hop's pair keys are built from ``int64`` ids, so a narrower id would
cost a cast per hop), an ``int8`` priority and a ``float64`` expiry
(``expires < now`` must compare exactly).  Blocks are the only way in:
:meth:`merge` takes a selection walk's block
(:class:`~repro.probing.prober.SelectionPlan`) and :meth:`lookup`
answers a candidate list; ``entries()`` copies the rows out.  ``tests/probing/reference_table.py`` is the dict-of-objects
table this one must match entry for entry, order included, and
``tests/probing/flood.py`` floods it one ``(peer, hop, direct)`` triple
list at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["NeighborEntry", "NeighborTable", "PRIO_DTYPE"]

#: A priority is ``2 * hop + (0 if direct else 1)``: up to 127 is 63 hops.
PRIO_DTYPE = np.int8
_PRIO_MAX = np.iinfo(PRIO_DTYPE).max


def _as_priorities(prio: np.ndarray) -> np.ndarray:
    """``prio`` as :data:`PRIO_DTYPE`; raises if a priority does not fit."""
    if prio.dtype == PRIO_DTYPE:
        return prio
    if len(prio) and not 0 <= prio.min() <= prio.max() <= _PRIO_MAX:
        raise OverflowError(f"priorities up to {prio.max()} exceed int8")
    return prio.astype(PRIO_DTYPE)


@dataclass(slots=True)
class NeighborEntry:
    """One (soft-state) neighbor relationship -- a copy of a table row."""

    peer_id: int
    hop: int
    direct: bool
    expires_at: float

    @property
    def priority(self) -> int:
        """Benefit rank; lower probes first (paper §2.2 ordering)."""
        return 2 * self.hop + (0 if self.direct else 1)


class NeighborTable:
    """The neighbor set one peer maintains (bounded by the probe budget)."""

    __slots__ = ("budget", "pids", "prio", "expires", "_index")

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self.pids = np.empty(0, dtype=np.int64)
        self.prio = np.empty(0, dtype=PRIO_DTYPE)
        self.expires = np.empty(0, dtype=np.float64)
        #: ``(sorted pids, sorter)`` for membership; rebuilt after a change.
        self._index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.pids)

    def entries(self) -> List[NeighborEntry]:
        return [
            NeighborEntry(pid, prio >> 1, not prio & 1, expires_at)
            for pid, prio, expires_at in zip(
                self.pids.tolist(), self.prio.tolist(), self.expires.tolist()
            )
        ]

    # -- membership -----------------------------------------------------------
    def _rows(self, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(member, rows)``: which targets have a row (expired or not),
        and that row (arbitrary where ``member`` is False)."""
        n = len(self.pids)
        if n == 0:
            none = np.zeros(len(targets), dtype=np.intp)
            return none.astype(bool), none
        if self._index is None:
            sorter = self.pids.argsort()
            self._index = (self.pids[sorter], sorter)
        sorted_pids, sorter = self._index
        at = sorted_pids.searchsorted(targets)
        np.minimum(at, n - 1, out=at)
        return sorted_pids[at] == targets, sorter[at]

    def _keep(self, keep: np.ndarray) -> None:
        self.pids = self.pids[keep]
        self.prio = self.prio[keep]
        self.expires = self.expires[keep]
        self._index = None

    def drop(self, peer_id: int) -> None:
        keep = self.pids != peer_id
        if not keep.all():
            self._keep(keep)

    def lookup(self, targets: np.ndarray, now: float) -> np.ndarray:
        """Positions in ``targets`` that name an active entry, ascending.

        An expired entry counts as absent: exactly the expired entries
        the targets touch are pruned, nothing else.
        """
        member, rows = self._rows(targets)
        pos = np.flatnonzero(member)
        expired = self.expires[rows[pos]] < now
        if expired.any():
            keep = np.ones(len(self.pids), dtype=bool)
            keep[rows[pos[expired]]] = False
            self._keep(keep)
            pos = pos[~expired]
        return pos

    # -- resolution -----------------------------------------------------------
    def merge(
        self,
        pids: np.ndarray,
        prio: np.ndarray,
        now: float,
        ttl: float,
        lead: int = 0,
        first: Optional[np.ndarray] = None,
    ) -> Tuple[int, int, Optional[np.ndarray]]:
        """Add/refresh the relations ``(pids[i], prio[i])`` of one selection
        walk's block, in array order; enforce the budget.

        The block is an entry of a
        :class:`~repro.probing.prober.SelectionPlan` (its ``first`` mask
        with it): every ``prio`` is a relation at hop >= 1, and the
        priorities never decrease along the block.  A held entry is
        refreshed (expiry extended) and upgraded to the better priority
        of old vs. new; a newcomer is appended at its first position.

        Returns ``(newly added, needed, active)``.  ``needed`` counts the
        notifications that could change anything: refreshes of entries
        not already fresh until ``now + ttl`` at an equal or better
        priority, plus the distinct newcomers the budget could hold (a
        resolver need not send the rest).  ``active`` says which of the
        block's first ``lead`` ids hold a row afterwards, as ascending
        positions -- what ``lookup(pids[:lead], now)`` would answer next
        (every row the block touched is fresh), read off the eviction
        instead of a second search; ``None`` when ``lead`` is 0 or a
        leading newcomer repeats.

        ``first`` is True where ``pids[i]`` is its id's first occurrence
        in the block, ``None`` when no id repeats.  Priorities never
        decrease, so a first occurrence already has its id's best
        priority and the mask alone keeps the newcomers.  Held rows take
        the better priority by one ``minimum.at`` only when an id may
        repeat; asking the mask whether a *member* repeats costs more
        than the ``minimum.at`` it would spare.
        """
        prio = _as_priorities(prio)
        expires_at = now + ttl
        n = len(self.pids)
        newcomers = first  # the positions to append; None: all of them
        needed = 0
        lead_rows = None  # merged-array row per leading id; None: n, n+1, ...
        if n:
            member, rows = self._rows(pids)
            n_members = np.count_nonzero(member)
            if n_members:
                at, known = rows[member], prio[member]
                until, held = self.expires[at], self.prio[at]
                stale = until < expires_at
                stale |= held > known
                needed = int(np.count_nonzero(stale))
                self.expires[at] = np.maximum(until, expires_at)
                if first is None:
                    self.prio[at] = np.minimum(held, known)
                else:
                    np.minimum.at(self.prio, at, known)
                if n_members == len(pids):
                    return 0, needed, np.arange(lead) if lead else None
                fresh = ~member
                if lead:
                    lead_rows = fresh[:lead].cumsum()
                    lead_rows += n - 1
                    np.copyto(lead_rows, rows[:lead], where=member[:lead])
                newcomers = fresh if first is None else fresh & first
        if first is not None and lead and np.count_nonzero(first[:lead]) < lead:
            # Leading newcomers keep their rank among the survivors only
            # if none repeats an earlier leading id.
            repeats = ~first[:lead]
            if n:
                repeats &= ~member[:lead]
            if repeats.any():
                lead = 0
        if newcomers is not None:
            pids, prio = pids[newcomers], prio[newcomers]
        added = len(pids)
        needed += min(added, self.budget)
        total = n + added
        expires = np.full(added, expires_at)
        if n:
            pids = np.concatenate((self.pids, pids))
            prio = np.concatenate((self.prio, prio))
            expires = np.concatenate((self.expires, expires))
        elif newcomers is None and total <= self.budget:
            pids, prio = pids.copy(), prio.copy()  # still the caller's arrays
        active = np.arange(lead) if lead else None
        if total > self.budget:
            # Over budget: every expired entry goes (newcomers are fresh),
            # then the worst by (priority desc, expiry asc), insertion
            # order -- held before new -- breaking ties (lexsort is stable).
            expired = expires < now
            n_expired = int(np.count_nonzero(expired))
            keys = (expires, -prio, ~expired) if n_expired else (expires, -prio)
            keep = np.ones(total, dtype=bool)
            keep[np.lexsort(keys)[:max(n_expired, total - self.budget)]] = False
            if lead:
                active = (
                    keep[n:n + lead] if lead_rows is None else keep[lead_rows]
                ).nonzero()[0]
            pids, prio, expires = pids[keep], prio[keep], expires[keep]
        self.pids, self.prio, self.expires = pids, prio, expires
        self._index = None
        return added, needed, active

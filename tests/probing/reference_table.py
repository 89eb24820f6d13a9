"""Executable specification of the neighbor table (dict of entry objects).

This is the table ``repro.probing.neighbors`` shipped before it became
parallel arrays, kept test-side as the reference the array table must
match entry for entry -- contents, iteration order (which later
evictions depend on), return values and lazy-expiry trigger points.
``tests/probing/test_table_equivalence.py`` drives both with the same
random schedules.

Semantics: at most ``budget`` entries; over budget the *least beneficial*
go first, where benefit follows the paper's probing order

    priority = 2 * hop + (0 if direct else 1)

(lower is better), ties broken by recency -- fresher entries win.
Entries are soft state: each carries an expiry time and expired entries
are treated as absent (and lazily pruned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["NeighborEntry", "NeighborTable"]


@dataclass(slots=True)
class NeighborEntry:
    """One (soft-state) neighbor relationship."""

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

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self._entries: Dict[int, NeighborEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._entries

    def entries(self) -> List[NeighborEntry]:
        return list(self._entries.values())

    def get(self, peer_id: int, now: float) -> Optional[NeighborEntry]:
        """The active entry for ``peer_id``, or ``None`` (expired counts
        as absent and is pruned)."""
        entry = self._entries.get(peer_id)
        if entry is None:
            return None
        if entry.expires_at < now:
            del self._entries[peer_id]
            return None
        return entry

    def resolve(
        self,
        neighbors: Iterable[Tuple[int, int, bool]],
        now: float,
        ttl: float,
    ) -> int:
        """Add/refresh ``(peer_id, hop, direct)`` relations; enforce budget.

        An existing entry is refreshed (expiry extended) and upgraded to
        the better (lower) priority of old vs. new.  Returns the number
        of entries *newly added* (refreshes are free under the budget).
        """
        expires = now + ttl
        entries = self._entries
        # Pending inserts are staged (pid -> [priority, hop, direct]) so
        # entries doomed by the budget are never constructed: the staged
        # view plus the refreshed existing entries rank exactly like the
        # insert-everything-then-evict spelling, including its stable
        # (priority desc, expiry asc, insertion order) tie-breaks.
        staged: Dict[int, list] = {}
        for peer_id, hop, direct in neighbors:
            if hop < 1:
                raise ValueError(f"hop must be >= 1, got {hop}")
            priority = 2 * hop + (0 if direct else 1)
            entry = entries.get(peer_id)
            if entry is not None:
                if expires > entry.expires_at:
                    entry.expires_at = expires
                if priority < 2 * entry.hop + (0 if entry.direct else 1):
                    entry.hop, entry.direct = hop, direct
            else:
                pending = staged.get(peer_id)
                if pending is None:
                    staged[peer_id] = [priority, hop, direct]
                elif priority < pending[0]:
                    pending[0], pending[1], pending[2] = priority, hop, direct
        added = len(staged)
        if len(entries) + added <= self.budget:
            for peer_id, (_, hop, direct) in staged.items():
                entries[peer_id] = NeighborEntry(peer_id, hop, direct, expires)
            return added
        # Over budget: expired entries go first (staged ones are fresh by
        # construction), then rank the union by (priority desc, expiry
        # asc) with insertion order -- existing entries before staged
        # ones -- breaking ties, and keep the best ``budget``.
        for pid in [p for p, e in entries.items() if e.expires_at < now]:
            del entries[pid]
        overflow = len(entries) + added - self.budget
        if overflow <= 0:
            for peer_id, (_, hop, direct) in staged.items():
                entries[peer_id] = NeighborEntry(peer_id, hop, direct, expires)
            return added
        ranked = [
            (-2 * e.hop - (0 if e.direct else 1), e.expires_at, i, pid)
            for i, (pid, e) in enumerate(entries.items())
        ]
        base = len(ranked)
        ranked.extend(
            (-pending[0], expires, base + i, pid)
            for i, (pid, pending) in enumerate(staged.items())
        )
        ranked.sort()
        for _, _, i, pid in ranked[:overflow]:
            if i < base:
                del entries[pid]
            else:
                del staged[pid]
        for peer_id, (_, hop, direct) in staged.items():
            entries[peer_id] = NeighborEntry(peer_id, hop, direct, expires)
        return added

    def drop(self, peer_id: int) -> None:
        self._entries.pop(peer_id, None)

    def active_ids(self, now: float) -> List[int]:
        return [pid for pid, e in self._entries.items() if e.expires_at >= now]

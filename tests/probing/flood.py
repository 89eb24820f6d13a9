"""The scalar neighbour flood and one-entry table reads, test-side.

Production resolves neighbours one way only: a selection walk's block
(``ProbingService.resolve_selection_hops`` with an entry of
``SelectionPlan``), whose priorities never decrease and whose repeats a
first-occurrence mask marks.  The scalar form of the same protocol -- a
list of ``(peer, hop, direct)`` triples in any order, ids repeating at
any priority -- and the one-entry reads tests assert on live here, over
the production :class:`~repro.probing.neighbors.NeighborTable`:

* :func:`regroup_merge` is ``merge`` for a block in any order: newcomers
  are grouped (first position, best priority of their occurrences) by a
  stable sort, the way the table grouped them before the walk plan
  marked repeats once per walk -- the oracle ``test_walk_dedup.py``
  holds the mask path to;
* :func:`resolve` floods triples through it, :func:`flood` does so at a
  prober's observer and counts the messages;
* :func:`get`, :func:`active_ids`, :func:`holds` and :func:`table_of`
  read without inserting a table (``reference_prober.py`` observes one
  target at a time through :func:`get`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.probing.neighbors import NeighborEntry, NeighborTable

__all__ = [
    "active_ids", "flood", "get", "holds", "regroup_merge", "resolve",
    "table_of",
]


def regroup_merge(table, pids, prio, now, ttl, lead=0):
    """``table.merge`` of relations ``(pids[i], prio[i])`` in any order.

    Held ids are refreshed once per occurrence, as in ``merge``.  Each
    newcomer enters at its first position with the best priority of its
    occurrences, so the block reaches ``merge`` with that priority at
    the first occurrence and a mask keeping only first occurrences; a
    repeated leading newcomer loses the leading-segment report.
    """
    member = table._rows(pids)[0]
    keep = np.ones(len(pids), dtype=bool)
    fresh = np.flatnonzero(~member)
    ids = pids[fresh]
    order = ids.argsort(kind="stable")
    grouped = ids[order]
    leads = np.ones(len(grouped), dtype=bool)
    leads[1:] = grouped[1:] != grouped[:-1]
    if np.count_nonzero(leads) < len(leads):
        starts = leads.nonzero()[0]
        prio = prio.copy()
        first = fresh[order[starts]]
        prio[first] = np.minimum.reduceat(prio[fresh][order], starts)
        keep[fresh] = False
        keep[first] = True
    return table.merge(pids, prio, now, ttl, lead, keep)


def resolve(
    table: NeighborTable,
    triples: Iterable[Tuple[int, int, bool]],
    now: float,
    ttl: float,
) -> int:
    """Add/refresh ``(peer_id, hop, direct)`` relations; enforce the budget.

    A held entry is refreshed and upgraded to the better priority of old
    vs. new.  Returns the number of entries *newly added*.
    """
    triples = np.array(list(triples), dtype=np.int64).reshape(-1, 3)
    if not len(triples):
        return 0
    prio = 2 * triples[:, 1] + 1 - triples[:, 2]
    if prio.min() < 2:
        raise ValueError("hop must be >= 1")
    return regroup_merge(table, triples[:, 0], prio, now, ttl)[0]


def get(table: NeighborTable, peer_id: int, now: float) -> Optional[NeighborEntry]:
    """The active entry for ``peer_id``, or ``None`` (an expired entry
    counts as absent and is pruned)."""
    if not len(table.lookup(np.array([peer_id], dtype=np.int64), now)):
        return None
    row = int(np.flatnonzero(table.pids == peer_id)[0])
    prio = int(table.prio[row])
    return NeighborEntry(
        peer_id, prio >> 1, not prio & 1, float(table.expires[row])
    )


def active_ids(table: NeighborTable, now: float) -> List[int]:
    """Ids of the unexpired entries, in row order (nothing is pruned)."""
    return table.pids[table.expires >= now].tolist()


def holds(table: NeighborTable, peer_id: int) -> bool:
    """Whether ``table`` has a row for ``peer_id``, expired or not."""
    return bool((table.pids == peer_id).any())


def table_of(probing, observer: int) -> NeighborTable:
    """``observer``'s table, or an empty one -- never inserted."""
    table = probing._tables.get(observer)
    return NeighborTable(probing.config.budget) if table is None else table


def flood(probing, observer: int, triples: Iterable[Tuple[int, int, bool]]) -> int:
    """:func:`resolve` ``triples`` at ``observer`` (creating its table),
    counting one resolution message per triple."""
    triples = list(triples)
    table = probing._tables.setdefault(
        observer, NeighborTable(probing.config.budget)
    )
    added = resolve(table, triples, probing.sim.now, probing.config.ttl)
    probing._count_resolution(len(triples))
    return added

"""Memory gate: per-peer state costs about what its fields cost.

The paper's scalability claim rests on bounded per-peer state (M probed
neighbours per peer, §2.2; an O(log N) DHT, §3.2).  These pins are
host-independent: allocated bytes under ``tracemalloc`` and array
``nbytes``, never RSS.

* a Chord ring member: its node id in the sorted list, its peer id in
  the aligned column and its entry in the peer -> node id column, and no
  object of its own (249 B per member while each member was a
  ``ChordNode`` with an empty store);
* a neighbour-table row: ``int64`` id, ``int8`` priority, ``float64``
  expiry, 17 B, and no instance ``__dict__`` on the table;
* a selection-plan id: ``int64`` id plus ``int8`` priority, 9 B;
* a departed peer: its recycled store row and one ``int64`` slot of the
  id -> row index, nothing else (≈ 690 B per departure while each left a
  ``Peer`` tombstone and a cached row view behind);
* the per-request records a run retains carry no ``__dict__``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.aggregation import AggregationResult, AggregationStatus
from repro.core.selection import SelectionOutcome
from repro.experiments.metrics import RequestRecord
from repro.lookup.chord import ChordRing
from repro.network.soa import SoAPeerDirectory
from repro.probing.neighbors import NeighborTable
from repro.probing.prober import SelectionPlan
from repro.services.qoscompiler import UserRequest
from repro.sessions.session import Session

RING_MEMBERS = 10_000
RING_BYTES_PER_MEMBER = 100


def test_ring_member_bytes():
    ring = ChordRing(bits=32, seed=0)
    tracemalloc.start()
    try:
        ring.join_many(range(RING_MEMBERS))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ring) == RING_MEMBERS
    assert held / RING_MEMBERS <= RING_BYTES_PER_MEMBER, held / RING_MEMBERS


def test_ring_keeps_records_only_where_keys_live():
    ring = ChordRing(bits=32, seed=0)
    ring.join_many(range(1000))
    assert not ring._stores
    ring.put_many([f"k{i}" for i in range(10)], list(range(10)))
    assert 0 < len(ring._stores) <= 10
    assert all(ring._stores.values())


DEPARTURES = 2_000
BYTES_PER_DEPARTURE = 64


def test_departed_peer_bytes():
    directory = SoAPeerDirectory(("cpu", "memory"), initial_rows=1024)
    directory.create_peers(np.full(1000, 500.0), 1e5, np.zeros(1000))

    def cycles(n, start):
        for now in range(start, start + n):
            directory.depart(directory.create_peer(250.0, 1e5, now), now)

    cycles(100, 0)  # warm: the store's free list and row buffers settle
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cycles(DEPARTURES, 100)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert directory.n_alive == 1000 and directory.store.n_rows == 1000
    per_cycle = (held - before) / DEPARTURES
    assert per_cycle <= BYTES_PER_DEPARTURE, per_cycle


def test_neighbor_table_row_bytes():
    table = NeighborTable(budget=100)
    assert not hasattr(table, "__dict__")
    plan = SelectionPlan([tuple(range(40)), tuple(range(40, 100))])
    ids, prio, first = plan[0]
    table.merge(ids, prio, now=0.0, ttl=10.0, first=first)
    rows = len(table)
    assert rows == 100
    nbytes = table.pids.nbytes + table.prio.nbytes + table.expires.nbytes
    assert nbytes == 17 * rows
    table.merge(ids[40:], prio[40:] + 1, now=1.0, ttl=10.0)
    assert table.prio.dtype == np.int8  # a merge never upcasts


def test_selection_plan_id_bytes():
    plan = SelectionPlan([tuple(range(k, k + 30)) for k in range(0, 150, 30)])
    assert plan.nbytes == 9 * 150  # no id repeats: no masks


def test_selection_plan_priority_overflow_raises():
    SelectionPlan([(1,)] * 63)
    with pytest.raises(OverflowError):
        SelectionPlan([(1,)] * 64)


def _records():
    request = UserRequest(1, 2, "app", "low", 5.0, 0.0)
    return [
        request,
        SelectionOutcome(3, False, 4, 4),
        AggregationResult(request, AggregationStatus.ADMITTED),
        Session(1, 1, 2, (), (3,), 0.0, 5.0),
        RequestRecord(1, 0.0, "app", "low", "admitted", True),
    ]


@pytest.mark.parametrize(
    "record", _records(), ids=lambda record: type(record).__name__
)
def test_per_request_records_are_slotted(record):
    assert not hasattr(record, "__dict__")

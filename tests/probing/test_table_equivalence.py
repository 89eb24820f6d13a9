"""Differential proof: the array NeighborTable is the reference table.

Hypothesis drives random schedules of ``resolve`` / ``merge`` of a plain
walk block / ``merge`` with a reported leading segment / ``get`` /
``lookup`` / ``drop`` / ``active_ids`` / time advances through the
production parallel-array table and the dict-of-objects reference
(``reference_table.py``, the table this repo shipped before), and after
every step requires identical return values and identical
``(pid, hop, direct, expires_at)`` sequences *including order* -- later
evictions break ties on insertion order, so an order slip would surface
as a different neighbor set many steps later.

Small id and hop ranges make collisions (refreshes, upgrades, duplicate
newcomers, over-budget floods, expired-but-unpruned entries) the common
case rather than the rare one.  The production table reaches the
scalar steps (``resolve`` of triples in any order, one-entry ``get``,
``active_ids``, membership) through ``tests/probing/flood.py``; the
block steps hand ``merge`` what a selection walk hands it: a
``SelectionPlan`` block (hops in order) and its first-occurrence mask.
The ``lead`` step is a selection hop's flood: a leading segment of
(mostly) distinct ids at hop 1 -- often longer than the budget, so the
hop's own candidates evict each other on insertion-order ties --
followed by later hops that may name the same ids again; ``merge`` must
say which leading ids hold a row afterwards, exactly as ``get`` on the
reference does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.probing.neighbors import NeighborTable
from repro.probing.prober import SelectionPlan

from tests.probing.flood import active_ids, get, holds, resolve
from tests.probing.reference_table import NeighborTable as ReferenceTable

_pid = st.integers(min_value=0, max_value=24)
_hop = st.integers(min_value=1, max_value=4)
_triples = st.lists(st.tuples(_pid, _hop, st.booleans()), max_size=30)
_ttl = st.sampled_from((0.5, 2.0, 10.0))

#: (leading ids, later-hop pairs, direct, ttl, pass no mask when no id repeats).
_lead = st.tuples(
    st.just("lead"),
    st.one_of(st.lists(_pid, min_size=1, max_size=12, unique=True),
              st.lists(_pid, min_size=1, max_size=6)),
    st.lists(st.tuples(_pid, st.integers(min_value=2, max_value=4)),
             max_size=16),
    st.booleans(), _ttl, st.booleans(),
)

_step = st.one_of(
    st.tuples(st.just("resolve"), _triples, _ttl),
    st.tuples(st.just("block"), st.lists(st.tuples(_pid, _hop), min_size=1,
                                         max_size=30), st.booleans(), _ttl),
    _lead,
    st.tuples(st.just("get"), _pid),
    st.tuples(st.just("lookup"), st.lists(_pid, max_size=12)),
    st.tuples(st.just("drop"), _pid),
    st.tuples(st.just("active")),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 1.0, 3.0))),
)


def _state(table):
    return [(e.peer_id, e.hop, e.direct, e.expires_at) for e in table.entries()]


def _row(entry):
    if entry is None:
        return None
    return (entry.peer_id, entry.hop, entry.direct, entry.expires_at,
            entry.priority)


def _reference_needed(ref, pairs, direct, now, ttl):
    """The ``needed`` a ``merge`` must report, counted on the reference
    *before* the call: refreshes that change something, plus the distinct
    newcomers the budget could hold."""
    bias = 0 if direct else 1
    held = {e.peer_id: e for e in ref.entries()}
    needed, newcomers = 0, set()
    for pid, hop in pairs:
        entry = held.get(pid)
        if entry is None:
            newcomers.add(pid)
        elif entry.expires_at < now + ttl or entry.priority > 2 * hop + bias:
            needed += 1
    return needed + min(len(newcomers), ref.budget)


def _walk_block(pairs, direct, claim=True):
    """``pairs`` as a selection walk's block: hop by hop, in their order
    within a hop, through ``SelectionPlan``.  Returns ``(pairs in block
    order, ids, prio, first)``; with ``claim`` false the mask is passed
    even when no id repeats."""
    hops = [[p for p, h in pairs if h == k]
            for k in range(1, max(h for _, h in pairs) + 1)]
    ids, prio, first = SelectionPlan(hops)[0]
    if first is None and not claim:
        first = np.ones(len(ids), dtype=bool)
    block = [(p, k + 1) for k, hop in enumerate(hops) for p in hop]
    return block, ids, prio + (0 if direct else 1), first


def _merge_hop_flood(arr, ref, lead_ids, later, direct, now, ttl, claim=True):
    """A hop's flood through ``merge`` and the reference: leading ids at
    hop 1, then ``later`` hop by hop.  Checks ``added`` / ``needed`` and
    the leading-segment report (``resolve`` the triples, then ``get``
    each leading id); returns the report."""
    pairs, ids, prio, first = _walk_block(
        [(p, 1) for p in lead_ids] + later, direct, claim
    )
    held = {e.peer_id for e in ref.entries()}
    needed = _reference_needed(ref, pairs, direct, now, ttl)
    added = ref.resolve([(p, h, direct) for p, h in pairs], now, ttl)
    got = arr.merge(ids, prio, now, ttl, lead=len(lead_ids), first=first)
    assert got[:2] == (added, needed)
    if got[2] is None:
        # Only a repeated leading newcomer may go unreported.
        fresh = [p for p in lead_ids if p not in held]
        assert len(set(fresh)) < len(fresh)
        return None
    assert got[2].tolist() == [
        i for i, p in enumerate(lead_ids) if ref.get(p, now) is not None
    ]
    return got[2].tolist()


@settings(max_examples=300, deadline=None)
@given(budget=st.integers(min_value=0, max_value=8),
       steps=st.lists(_step, max_size=40))
def test_array_table_matches_reference(budget, steps):
    arr, ref = NeighborTable(budget), ReferenceTable(budget)
    now = 0.0
    for step in steps:
        op = step[0]
        if op == "resolve":
            _, triples, ttl = step
            assert resolve(arr, triples, now, ttl) == ref.resolve(triples, now, ttl)
        elif op == "block":
            _, pairs, direct, ttl = step
            pairs, ids, prio, first = _walk_block(pairs, direct)
            expected = _reference_needed(ref, pairs, direct, now, ttl)
            ref.resolve([(p, h, direct) for p, h in pairs], now, ttl)
            got = arr.merge(ids, prio, now, ttl, first=first)
            assert got[1] == expected
        elif op == "lead":
            _, lead_ids, later, direct, ttl, claim = step
            _merge_hop_flood(arr, ref, lead_ids, later, direct, now, ttl, claim)
        elif op == "get":
            assert _row(get(arr, step[1], now)) == _row(ref.get(step[1], now))
        elif op == "lookup":
            targets = step[1]
            expected = [i for i, t in enumerate(targets)
                        if ref.get(t, now) is not None]
            got = arr.lookup(np.array(targets, dtype=np.int64), now)
            assert got.tolist() == expected
        elif op == "drop":
            arr.drop(step[1])
            ref.drop(step[1])
        elif op == "active":
            assert active_ids(arr, now) == ref.active_ids(now)
        else:
            now += step[1]
        assert _state(arr) == _state(ref)
        assert len(arr) == len(ref) <= budget
        for pid in (0, 7, 24):
            assert holds(arr, pid) == (pid in ref)


def _lead_case(budget, setup, now, lead_ids, later, direct=True, ttl=2.0):
    """One hop flood after the ``setup`` resolves; returns merge's report."""
    arr, ref = NeighborTable(budget), ReferenceTable(budget)
    for at, triples in setup:
        resolve(arr, triples, at, 2.0)
        ref.resolve(triples, at, 2.0)
    report = _merge_hop_flood(arr, ref, lead_ids, later, direct, now, ttl)
    assert _state(arr) == _state(ref)
    return report


def test_merge_reports_leading_segment_hard_cases():
    # Empty table, everything fits / budget 0 / budget below the leading
    # segment: the hop's own candidates tie on (priority, expiry), so
    # insertion order evicts the *first* ones.
    assert _lead_case(8, [], 0.0, [5, 3, 9], [(4, 2)]) == [0, 1, 2]
    assert _lead_case(0, [], 0.0, [5, 3, 9], [(4, 2)]) == []
    assert _lead_case(2, [], 0.0, [5, 3, 9, 1], [(4, 2)]) == [2, 3]
    # The same id in two hops keeps its hop-1 priority and its position.
    assert _lead_case(3, [], 0.0, [5, 3], [(3, 2), (7, 2), (5, 3), (8, 2)]) == [0, 1]
    # Held members among the leading ids (a better-priority held row
    # survives where a newcomer does not), all of them already members,
    # and a member whose entry expired but was never pruned.
    held = [(0.0, [(3, 1, True), (6, 1, True), (7, 3, False)])]
    assert _lead_case(2, held, 1.0, [9, 3, 8, 6], [], direct=False) == [1, 3]
    assert _lead_case(3, held, 1.0, [9, 3, 8, 6], [], direct=False) == [1, 2, 3]
    assert _lead_case(3, held, 1.0, [6, 3], []) == [0, 1]
    assert _lead_case(2, held, 5.0, [9, 3, 8], [(7, 2)]) == [0, 2]

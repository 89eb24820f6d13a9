"""The walk's dedup is the table's regrouping, found once per walk.

``ProbingService.selection_plan`` marks, for every suffix of a selection
walk, which flattened ids are their id's first occurrence in that suffix;
``resolve_selection_hops`` carries the mask through its observer filter
into ``NeighborTable.merge``, which keeps newcomers by it instead of
grouping repeats itself.  Two properties pin that down:

* the plan's masks are the brute-force "not seen earlier in this
  suffix" (``None`` exactly when nothing repeats);
* a walk's hops through the mask path leave the same table as the same
  blocks through ``tests/probing/flood.py::regroup_merge`` -- the
  regrouping the table did before the plan marked repeats -- on a twin
  table: ``entries()`` in order, ``added``, ``needed`` (and
  ``probe.resolution_messages``) and the leading-segment report.

Small id ranges make every case common: the observer among its own
candidates, repeats inside a later hop, one id in every hop, a repeat
inside the leading hop, expired members, budget 0.
"""

from itertools import chain

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.soa import SoAPeerDirectory
from repro.probing.neighbors import NeighborTable
from repro.probing.prober import ProbingConfig, ProbingService
from repro.sim import Simulator
from tests.probing.flood import regroup_merge

_pid = st.integers(min_value=0, max_value=15)
_hops = st.lists(st.lists(_pid, min_size=1, max_size=8), min_size=1, max_size=4)


class _RecordingTable(NeighborTable):
    """A production table that keeps what each ``merge`` returned."""

    def __init__(self, budget):
        super().__init__(budget)
        self.returns = []

    def merge(self, *args, **kwargs):
        out = super().merge(*args, **kwargs)
        self.returns.append(out)
        return out


def _brute_first(suffix):
    return [pid not in suffix[:j] for j, pid in enumerate(suffix)]


def _probing(budget, ttl):
    return ProbingService(
        Simulator(), SoAPeerDirectory(("cpu",)), None,
        ProbingConfig(budget=budget, ttl=ttl),
    )


def _report(active):
    return None if active is None else active.tolist()


def _entries(table):
    return [(e.peer_id, e.hop, e.direct, e.expires_at) for e in table.entries()]


def _regroup_hop(twin, observer, hops, direct, now, ttl):
    """The hop's flood, built by hand and merged by regrouping; ``None``
    when nothing is left after the observer filter."""
    pairs = [
        (pid, k + 1) for k, hop in enumerate(hops) for pid in hop
        if pid != observer
    ]
    if not pairs:
        return None
    lead = 0 if observer in hops[0] else len(hops[0])
    bias = 0 if direct else 1
    return regroup_merge(
        twin,
        np.array([p for p, _ in pairs], dtype=np.int64),
        np.array([2 * h + bias for _, h in pairs], dtype=np.int64),
        now, ttl, lead,
    )


def _walk(probing, twins, requester, hops, observers):
    """One walk: hop ``i`` resolved at ``observers[i]`` through the plan
    and through the regrouping path; every return and table compared."""
    now, ttl = probing.sim.now, probing.config.ttl
    plan = probing.selection_plan(hops)
    reports = []
    for i, observer in enumerate(observers):
        direct = observer == requester
        table = probing._tables.setdefault(
            observer, _RecordingTable(probing.config.budget)
        )
        twin = twins.setdefault(observer, NeighborTable(probing.config.budget))
        table.returns.clear()
        before = probing.resolution_messages
        known = probing.resolve_selection_hops(
            observer, hops[i:], direct=direct, plan=plan[i]
        )
        expected = _regroup_hop(twin, observer, hops[i:], direct, now, ttl)
        if expected is None:
            assert known is None and table.returns == []
        else:
            (got,) = table.returns
            assert got[:2] == expected[:2]
            assert _report(got[2]) == _report(known) == _report(expected[2])
            assert probing.resolution_messages - before == expected[1]
        assert _entries(table) == _entries(twin)
        reports.append(_report(known))
    return reports


@settings(max_examples=300, deadline=None)
@given(hops=_hops)
def test_plan_masks_are_first_occurrences(hops):
    plan = _probing(4, 2.0).selection_plan(hops)
    assert len(plan) == len(hops)
    for i, (ids, prio, first) in enumerate(plan):
        suffix = list(chain.from_iterable(hops[i:]))
        assert ids.tolist() == suffix
        assert prio.tolist() == [
            2 * (k + 1) for k, hop in enumerate(hops[i:]) for _ in hop
        ]
        brute = _brute_first(suffix)
        if all(brute):
            assert first is None
        else:
            assert first.tolist() == brute


_walks = st.lists(
    st.tuples(
        _hops,
        st.lists(_pid, min_size=4, max_size=4),  # observers (first: requester)
        st.sampled_from((0.0, 0.5, 1.0, 3.0)),  # time advance before the walk
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(budget=st.integers(min_value=0, max_value=8),
       ttl=st.sampled_from((0.5, 2.0, 10.0)), walks=_walks)
def test_mask_path_equals_regrouping(budget, ttl, walks):
    probing, twins = _probing(budget, ttl), {}
    for hops, observers, advance in walks:
        probing.sim.run(until=probing.sim.now + advance)
        _walk(probing, twins, observers[0], hops, observers[:len(hops)])


def test_named_cases():
    """Each case the mask must get right, on a fresh plane each."""
    def run(hops, observers, budget=8, ttl=2.0, held=(), at=0.0):
        probing, twins = _probing(budget, ttl), {}
        for observer, pids in held:  # earlier soft state, at time 0
            _walk(probing, twins, observer, [list(pids)], [observer])
        probing.sim.run(until=at)
        return _walk(probing, twins, observers[0], hops, observers)

    # The observer among its own candidates: no report for that hop.
    assert run([[1, 2, 3], [4, 5]], [2, 9]) == [None, [0, 1]]
    # Repeats inside a later hop, and one id in every hop.
    assert run([[1, 2], [3, 4, 3], [5]], [0]) == [[0, 1]]
    assert run([[7, 1], [7, 2], [7, 3]], [0, 1, 2]) == [[0, 1], [0, 1], [0, 1]]
    # A repeat inside the leading hop: a repeated newcomer cannot be
    # reported; a repeated held id can.
    assert run([[3, 3, 5], [6]], [0]) == [None]
    assert run([[3, 3, 5], [6]], [0], held=[(0, [3])]) == [[0, 1, 2]]
    # Expired members (held at time 0, ttl 2, walked at time 3) and
    # budget 0 (nothing is ever held, nothing reported).
    assert run([[3, 4], [4, 8]], [0, 3], held=[(0, [3, 4, 8])], at=3.0) == [
        [0, 1], [0, 1]
    ]
    assert run([[3, 4], [4, 8]], [0, 3], budget=0) == [[], []]

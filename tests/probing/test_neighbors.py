"""Unit tests for neighbor tables (budget, priority, soft state).

The tables are flooded and read through the scalar helpers of
``tests/probing/flood.py``.
"""

import pytest

from repro.probing.neighbors import NeighborEntry, NeighborTable
from tests.probing.flood import active_ids, get, holds, resolve


class TestPriority:
    def test_paper_probe_order(self):
        """1-hop direct < 1-hop indirect < 2-hop direct < 2-hop indirect."""
        p = [
            NeighborEntry(0, 1, True, 0).priority,
            NeighborEntry(0, 1, False, 0).priority,
            NeighborEntry(0, 2, True, 0).priority,
            NeighborEntry(0, 2, False, 0).priority,
        ]
        assert p == sorted(p)
        assert len(set(p)) == 4


class TestResolve:
    def test_add_and_get(self):
        t = NeighborTable(budget=10)
        added = resolve(t, [(1, 1, True), (2, 2, False)], now=0.0, ttl=5.0)
        assert added == 2
        assert get(t, 1, now=1.0).direct
        assert not get(t, 2, now=1.0).direct

    def test_hop_validation(self):
        t = NeighborTable(budget=10)
        with pytest.raises(ValueError):
            resolve(t, [(1, 0, True)], now=0.0, ttl=5.0)

    def test_refresh_extends_expiry(self):
        t = NeighborTable(budget=10)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        resolve(t, [(1, 1, True)], now=4.0, ttl=5.0)
        assert get(t, 1, now=8.0) is not None

    def test_refresh_upgrades_priority(self):
        t = NeighborTable(budget=10)
        resolve(t, [(1, 3, False)], now=0.0, ttl=5.0)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        e = get(t, 1, now=0.0)
        assert e.hop == 1 and e.direct

    def test_refresh_does_not_downgrade(self):
        t = NeighborTable(budget=10)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        resolve(t, [(1, 3, False)], now=0.0, ttl=5.0)
        e = get(t, 1, now=0.0)
        assert e.hop == 1 and e.direct


class TestSoftState:
    def test_expired_entry_absent_and_pruned(self):
        t = NeighborTable(budget=10)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        assert get(t, 1, now=6.0) is None
        assert len(t) == 0

    def test_active_ids(self):
        t = NeighborTable(budget=10)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        resolve(t, [(2, 1, True)], now=0.0, ttl=20.0)
        assert active_ids(t, now=10.0) == [2]

    def test_drop(self):
        t = NeighborTable(budget=10)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        t.drop(1)
        assert not holds(t, 1)


class TestBudget:
    def test_budget_enforced(self):
        t = NeighborTable(budget=3)
        resolve(t, [(i, 1, True) for i in range(10)], now=0.0, ttl=5.0)
        assert len(t) == 3

    def test_eviction_prefers_low_benefit(self):
        t = NeighborTable(budget=2)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        resolve(t, [(2, 3, False)], now=0.0, ttl=5.0)
        resolve(t, [(3, 1, True)], now=0.0, ttl=5.0)
        # The 3-hop indirect entry is the least beneficial.
        assert not holds(t, 2)
        assert holds(t, 1) and holds(t, 3)

    def test_eviction_drops_expired_first(self):
        t = NeighborTable(budget=2)
        resolve(t, [(1, 1, True)], now=0.0, ttl=1.0)   # will be expired
        resolve(t, [(2, 5, False)], now=0.0, ttl=50.0)
        resolve(t, [(3, 5, False)], now=10.0, ttl=50.0)
        assert not holds(t, 1)
        assert holds(t, 2) and holds(t, 3)

    def test_zero_budget_keeps_nothing(self):
        t = NeighborTable(budget=0)
        resolve(t, [(1, 1, True)], now=0.0, ttl=5.0)
        assert len(t) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            NeighborTable(budget=-1)

"""Unit coverage for the struct-of-arrays peer store and directory.

The differential suite (tests/perf/test_soa_differential.py) proves the
SoA backend equals the object backend end to end; these tests pin the
store's own mechanics -- row recycling on departure/rejoin, generation
bumps, snapshot-epoch reset, free-list order, array growth -- at the
unit level, where a regression is attributable to one method.
"""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.network.soa import PeerRowView, PeerStore, SoAPeerDirectory
from tests.network.reference_directory import (
    PeerDirectory,
    ScalarPeer,
    availability_matrix,
)

NAMES = ("cpu", "memory")


def rv(*values):
    return ResourceVector(NAMES, np.asarray(values, dtype=np.float64))


def make_directory(initial_rows=16):
    return SoAPeerDirectory(NAMES, initial_rows=initial_rows)


class TestPeerStoreRows:
    def test_alloc_appends_then_recycles_lifo(self):
        store = PeerStore(NAMES, initial_rows=16)
        r0, r1, r2 = store.alloc_rows(3).tolist()
        assert (r0, r1, r2) == (0, 1, 2)
        store.free_row(r0)
        store.free_row(r2)
        # Free list is LIFO: the most recently freed row comes back first.
        assert store.alloc_rows(1).tolist() == [r2]
        assert store.alloc_rows(1).tolist() == [r0]
        assert store.rows_recycled == 2
        # Only fresh appends move the high-water mark.
        assert store.alloc_rows(1).tolist() == [3]
        # A block takes the same rows in the same order.
        store.free_row(r0)
        store.free_row(r2)
        assert store.alloc_rows(3).tolist() == [r2, r0, 4]
        assert store.rows_recycled == 4

    def test_generation_bumps_on_alloc_and_free(self):
        store = PeerStore(NAMES, initial_rows=16)
        g0 = store.generation
        (row,) = store.alloc_rows(1)
        assert store.generation == g0 + 1
        store.free_row(row)
        assert store.generation == g0 + 2
        store.alloc_rows(3)
        assert store.generation == g0 + 5

    def test_free_resets_alive_and_snap_epoch(self):
        store = PeerStore(NAMES, initial_rows=16)
        rows = store.alloc_rows(1)
        store.init_rows(rows, np.array([[4.0, 8.0]]), 1e5, np.zeros(1))
        (row,) = rows
        store.snap_epoch[row] = 7  # pretend the prober snapshotted it
        store.free_row(row)
        assert not store.alive[row]
        # A recycled row must never serve the prior tenant's snapshot.
        assert store.snap_epoch[row] == -1

    def test_grow_preserves_state_and_fill_values(self):
        store = PeerStore(NAMES, initial_rows=16)
        cap = store.row_capacity
        for i in range(cap + 1):  # force one doubling
            rows = store.alloc_rows(1)
            store.init_rows(rows, np.array([[1.0 + i, 2.0]]), 1e5, [float(i)])
        assert store.row_capacity >= 2 * cap
        assert store.capacity[0, 0] == 1.0
        assert store.joined_at[cap] == float(cap)
        # Fresh tail rows keep the sentinel fills.
        assert np.isnan(store.departed_at[cap + 1 :]).all()
        assert (store.snap_epoch[cap + 1 :] == -1).all()

    def test_memory_bytes_counts_every_array(self):
        store = PeerStore(NAMES, initial_rows=16)
        m = len(NAMES)
        expected = store.row_capacity * (
            3 * m * 8   # capacity, available, snap_avail matrices
            + 8 * 8     # the seven f8 vectors + snap_epoch (i8)
            + 1         # alive (bool)
        )
        assert store.memory_bytes() == expected


class TestDirectoryLifecycle:
    def test_create_returns_the_id_and_get_a_read_only_view(self):
        d = make_directory()
        pid = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        assert pid == 0 and d.is_alive(0)
        p = d[pid]
        assert isinstance(p, PeerRowView)
        assert p.peer_id == 0
        assert p.capacity.names == NAMES
        assert p.available.values.tolist() == [4.0, 8.0]
        assert (p.access_bw, p.avail_up, p.avail_down, p.joined_at) == (
            1e5, 1e5, 1e5, 0.0
        )
        # The view hands out copies: the row changes only through the
        # directory's ledger operations.
        p.available.values[:] = 0.0
        assert d[pid].available.values.tolist() == [4.0, 8.0]
        assert d.reserve(pid, rv(1.0, 1.0))
        assert p.available.values.tolist() == [3.0, 7.0]  # reads through

    def test_depart_recycles_row_and_rejoin_reuses_it(self):
        d = make_directory()
        a = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        b = d.create_peer(rv(2.0, 2.0), 1e5, joined_at=0.0)
        row_a = d.row_of(a)
        d.depart(a, now=3.0)
        assert d.row_of(a) == -1
        assert not d.is_alive(a)
        # The rejoining peer gets a fresh id but recycles a's row.
        c = d.create_peer(rv(9.0, 9.0), 2e5, joined_at=3.0)
        assert c == 2
        assert d.row_of(c) == row_a
        assert d.store.rows_recycled == 1
        # The recycled row carries only the new tenant's state.
        assert d[c].available.values.tolist() == [9.0, 9.0]
        assert d[c].joined_at == 3.0
        assert d.store.snap_epoch[row_a] == -1
        assert d[b].available.values.tolist() == [2.0, 2.0]

    def test_departed_peer_leaves_no_state_behind(self):
        d = make_directory()
        p = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        q = d.create_peer(rv(2.0, 2.0), 1e5, joined_at=0.0)
        assert d.reserve(p, rv(1.0, 1.0))
        assert d.reserve_link(p, q, 2e4)
        assert d.depart(p, now=7.0) is None
        # The directory answers "not alive" for the departed id and
        # refuses debits to it.
        assert d.get(p) is None
        with pytest.raises(KeyError):
            d[p]
        assert not d.reserve(p, rv(1.0, 1.0))
        assert not d.reserve_link(q, p, 1.0) and not d.reserve_link(p, q, 1.0)
        assert d[q].avail_up == 1e5  # the failed debits left q alone

    def test_departed_peer_becomes_detached_tombstone(self):
        """A departed id is detached from the store: late credits
        (rollbacks) addressed to it are dropped, so they never reach the
        row a new peer recycles, while the live end of a link is
        credited."""
        d = make_directory()
        p = d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
        q = d.create_peer(rv(2.0, 2.0), 1e5, joined_at=0.0)
        assert d.reserve(p, rv(1.0, 1.0))
        assert d.reserve_link(p, q, 2e4)
        d.depart(p, now=7.0)
        assert d.store.departed_at[0] == 7.0 and not d.store.alive[0]
        fresh = d.create_peer(rv(5.0, 5.0), 1e5, joined_at=8.0)
        assert d.row_of(fresh) == 0
        d.release(p, rv(1.0, 1.0))
        d.release_link(p, q, 2e4)
        assert d[fresh].available.values.tolist() == [5.0, 5.0]
        assert d[fresh].avail_up == 1e5
        assert d[q].avail_down == 1e5  # the live end is credited

    def test_create_peer_from_one_scale(self):
        d = make_directory()
        p = d[d.create_peer(250.0, 1e5, joined_at=0.0)]
        assert p.capacity.values.tolist() == [250.0, 250.0]
        assert p.available.values.tolist() == [250.0, 250.0]
        with pytest.raises(ValueError):
            d.create_peer(-1.0, 1e5, joined_at=0.0)

    def test_create_peers_block_and_lazy_views(self):
        d = make_directory()
        ids = d.create_peers(
            np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            np.array([1e5, 2e5, 3e5]),
            np.array([-1.0, -2.0, -3.0]),
        )
        assert ids == range(0, 3) and d.alive_ids == [0, 1, 2]
        assert d.is_alive(1) and not d.is_alive(3) and d.get(3) is None
        view = d[1]
        assert isinstance(view, PeerRowView)
        assert d[1] is not view  # made on demand, none kept
        assert view.capacity.values.tolist() == [3.0, 4.0]
        assert (view.access_bw, view.joined_at) == (2e5, -2.0)
        assert [p.peer_id for p in d.alive_peers()] == [0, 1, 2]
        d.depart(2, now=1.0)
        assert d.get(2) is None and not d.is_alive(2)
        assert d.create_peers(np.empty(0), 1e5, np.empty(0)) == range(3, 3)

    def test_create_peers_rejects_before_writing(self):
        d = make_directory()
        d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        g0 = d.generation
        with pytest.raises(ValueError, match="peer 3: access bandwidth"):
            d.create_peers(
                np.ones(3), np.array([1e5, 1e5, np.nan]), np.zeros(3)
            )
        with pytest.raises(ValueError, match="negative"):
            d.create_peers(np.array([1.0, -1.0]), 1e5, np.zeros(2))
        d._next_id = 2**28 - 2
        with pytest.raises(OverflowError):
            d.create_peers(np.ones(3), 1e5, np.zeros(3))
        d._next_id = 1
        assert d.generation == g0 and d.alive_ids == [0] and d.n_alive == 1

    def test_depart_twice_and_unknown_raise(self):
        d = make_directory()
        p = d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        d.depart(p, now=1.0)
        with pytest.raises(ValueError):
            d.depart(p, now=2.0)
        with pytest.raises(KeyError):
            d.depart(99, now=2.0)

    def test_generation_tracks_membership_changes(self):
        d = make_directory()
        g0 = d.store.generation
        a = d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        assert d.store.generation == g0 + 2
        d.depart(a, now=1.0)
        assert d.store.generation == g0 + 3

    def test_alive_views_stay_aligned_under_churn(self):
        d = make_directory()
        peers = [d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
                 for _ in range(5)]
        d.depart(peers[1], now=1.0)
        d.depart(peers[3], now=1.0)
        assert d.alive_ids == [0, 2, 4]
        assert d.n_alive == 3
        rows = d.alive_rows()
        assert rows.tolist() == [d.row_of(pid) for pid in d.alive_ids]
        up, ids = d.uptimes(4.0)
        assert ids == [0, 2, 4] and up.tolist() == [4.0, 4.0, 4.0]

    def test_availability_matrix_covers_departed_ids(self):
        """The scalar reference directory answers for a departed id with
        its last availability; the SoA directory freed that row, so it
        refuses the id rather than read a recycled tenant's state."""
        ref, d = PeerDirectory(NAMES), make_directory()
        for directory in (ref, d):
            a = directory.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
            b = directory.create_peer(rv(2.0, 2.0), 1e5, joined_at=0.0)
            directory.depart(b, now=1.0)
        assert ref[a].reserve(rv(1.0, 1.0)) and d.reserve(a, rv(1.0, 1.0))
        mat = availability_matrix(ref, [a, b])
        assert mat.tolist() == [[3.0, 7.0], [2.0, 2.0]]
        assert availability_matrix(d, [a]).tolist() == [[3.0, 7.0]]
        with pytest.raises(KeyError):
            availability_matrix(d, [a, b])

    def test_directory_grows_row_index_past_initial_rows(self):
        d = make_directory(initial_rows=16)
        for _ in range(40):
            d.create_peer(rv(1.0, 1.0), 1e5, joined_at=0.0)
        assert d.n_alive == 40
        assert d.row_of(39) >= 0

    def test_row_view_accounting_matches_object_peer(self):
        """Each ledger rule, applied by id, leaves the row what the
        scalar model's method leaves its object, bit for bit."""
        d = make_directory()
        p, q = (d.create_peer(rv(4.0, 8.0), 1e5, joined_at=0.0)
                for _ in range(2))
        model = ScalarPeer(p, rv(4.0, 8.0), 1e5)
        other = ScalarPeer(q, rv(4.0, 8.0), 1e5)
        assert d.reserve(p, rv(4.0, 8.0)) and model.reserve(rv(4.0, 8.0))
        d.release(p, rv(4.0, 8.0))
        model.release(rv(4.0, 8.0))
        assert d.reserve(p, rv(3.0, 3.0)) and model.reserve(rv(3.0, 3.0))
        assert not d.reserve(p, rv(2.0, 1.0))  # atomic: nothing deducted
        assert not model.reserve(rv(2.0, 1.0))
        assert d[p].available.values.tolist() == [1.0, 5.0]
        d.release(p, rv(3.0, 3.0))
        model.release(rv(3.0, 3.0))
        with pytest.raises(ValueError):
            d.release(p, rv(1.0, 1.0))  # over capacity
        with pytest.raises(ValueError):
            model.release(rv(1.0, 1.0))
        assert d[p].available.values.tobytes() == model.available.values.tobytes()
        for bw in (4e4, 1.1e4 / 3, 7e4):
            ok = d.reserve_link(p, q, bw)
            assert ok == (model.reserve_up(bw) and other.reserve_down(bw))
        assert not d.reserve_link(p, q, 1e5)  # short: neither end debited
        assert (d[p].avail_up, d[q].avail_down) == (model.avail_up, other.avail_down)
        assert d[p].avail_up == 6e4 - 1.1e4 / 3
        d.release_link(p, q, 9e5)  # clamped at access_bw
        model.release_up(9e5)
        other.release_down(9e5)
        assert (d[p].avail_up, d[q].avail_down) == (1e5, 1e5)
        assert (model.avail_up, other.avail_down) == (1e5, 1e5)

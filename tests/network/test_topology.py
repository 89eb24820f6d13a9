"""Unit tests for pairwise classes and bandwidth accounting."""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import (
    BANDWIDTH_CLASSES,
    LATENCY_CLASSES_MS,
    NetworkModel,
    PairwiseClasses,
)

NAMES = ("cpu", "memory")


def make_net(n=10, access=1e6, seed=0, weights=None):
    d = SoAPeerDirectory(NAMES)
    for _ in range(n):
        d.create_peer(ResourceVector(NAMES, [100, 100]), access, 0.0)
    return d, NetworkModel(d, seed=seed, bandwidth_weights=weights)


class TestPairwiseClasses:
    def test_deterministic_and_symmetric(self):
        pc = PairwiseClasses(seed=3, n_classes=4)
        assert pc.class_index(5, 9) == pc.class_index(9, 5)
        assert pc.class_index(5, 9) == PairwiseClasses(3, 4).class_index(5, 9)

    def test_seed_changes_assignment(self):
        a = PairwiseClasses(1, 4)
        b = PairwiseClasses(2, 4)
        diffs = sum(
            a.class_index(i, j) != b.class_index(i, j)
            for i in range(20)
            for j in range(i + 1, 20)
        )
        assert diffs > 0

    def test_uniform_marginal_distribution(self):
        pc = PairwiseClasses(seed=0, n_classes=4)
        counts = np.zeros(4)
        for i in range(100):
            for j in range(i + 1, 100):
                counts[pc.class_index(i, j)] += 1
        frac = counts / counts.sum()
        assert np.all(np.abs(frac - 0.25) < 0.02)

    def test_weighted_marginal_distribution(self):
        w = (0.5, 0.3, 0.15, 0.05)
        pc = PairwiseClasses(seed=0, n_classes=4, weights=w)
        counts = np.zeros(4)
        for i in range(120):
            for j in range(i + 1, 120):
                counts[pc.class_index(i, j)] += 1
        frac = counts / counts.sum()
        assert np.all(np.abs(frac - np.array(w)) < 0.02)

    @pytest.mark.parametrize("weights", [None, (0.35, 0.35, 0.2, 0.1),
                                         (0.0, 0.5, 0.0, 0.5)])
    def test_prefix_state_digest_is_the_whole_message_digest(self, weights):
        """The hash input is golden-pinned: copying a state that absorbed
        ``b"<seed>:"`` and adding ``b"<lo>:<hi>"`` must digest exactly
        ``b"<seed>:<lo>:<hi>"``, and the class must be the scalar
        ``bisect_right`` / modulo of that digest."""
        import hashlib
        from bisect import bisect_right

        rng = np.random.default_rng(17)
        for seed in (0, 7, 2**31 + 5):
            pc = PairwiseClasses(seed, 4, weights)
            los = rng.integers(0, 2**28, size=300).tolist()
            his = [lo + int(d) for lo, d in
                   zip(los, rng.integers(0, 10**4, size=300))]
            his[::50] = los[::50]  # local pairs hash like any other
            expected = []
            for lo, hi in zip(los, his):
                raw = int.from_bytes(hashlib.blake2b(
                    b"%d:%d:%d" % (seed, lo, hi), digest_size=4
                ).digest(), "little")
                if weights is None:
                    expected.append(raw % 4)
                else:
                    w = np.asarray(weights, dtype=np.float64)
                    cumulative = np.cumsum(w / w.sum()).tolist()
                    expected.append(min(bisect_right(cumulative, raw / 2**32), 3))
            assert pc.class_indices(los, his).tolist() == expected
            assert [pc.class_index(hi, lo) for lo, hi in
                    zip(los[:20], his[:20])] == expected[:20]

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            PairwiseClasses(0, 4, weights=(1.0, 0.0))
        with pytest.raises(ValueError):
            PairwiseClasses(0, 2, weights=(-1.0, 2.0))


class TestNetworkModel:
    def test_pair_capacity_in_classes(self):
        _, net = make_net()
        for a in range(5):
            for b in range(a + 1, 5):
                assert net.pair_capacity(a, b) in BANDWIDTH_CLASSES

    def test_latency_in_classes(self):
        _, net = make_net()
        assert net.latency_ms(0, 1) in LATENCY_CLASSES_MS
        assert net.latency_ms(0, 0) == 0.0

    def test_self_pair_infinite(self):
        _, net = make_net()
        assert net.pair_capacity(3, 3) == float("inf")
        assert net.available_bandwidth(3, 3) == float("inf")

    def test_available_includes_access_links(self):
        d, net = make_net(access=500.0)
        # Pair class is way above the access link, so access dominates.
        assert net.available_bandwidth(0, 1) <= 500.0

    def test_reserve_decrements_and_release_restores(self):
        d, net = make_net(access=1e6)
        before = net.available_bandwidth(0, 1)
        assert net.reserve(0, 1, 200.0)
        assert net.available_bandwidth(0, 1) == pytest.approx(before - 200.0)
        assert d[0].avail_up == pytest.approx(1e6 - 200.0)
        assert d[1].avail_down == pytest.approx(1e6 - 200.0)
        net.release(0, 1, 200.0)
        assert net.available_bandwidth(0, 1) == pytest.approx(before)
        assert net.n_reserved_pairs == 0

    def test_reserve_rejects_when_insufficient(self):
        d, net = make_net(access=100.0)
        assert not net.reserve(0, 1, 150.0)
        # State unchanged after rejection.
        assert d[0].avail_up == 100.0
        assert d[1].avail_down == 100.0

    def test_reserve_fills_pair_capacity(self):
        d, net = make_net(access=1e9)
        cap = net.pair_capacity(0, 1)
        assert net.reserve(0, 1, cap)
        assert net.available_bandwidth(0, 1) == 0.0
        assert not net.reserve(0, 1, 1.0)

    def test_directional_reservations_share_pair(self):
        """Flows in both directions share the bottleneck capacity."""
        d, net = make_net(access=1e9)
        cap = net.pair_capacity(0, 1)
        assert net.reserve(0, 1, cap * 0.6)
        assert not net.reserve(1, 0, cap * 0.6)
        assert net.reserve(1, 0, cap * 0.4)

    def test_zero_reservation_noop(self):
        d, net = make_net()
        assert net.reserve(0, 1, 0.0)
        assert net.n_reserved_pairs == 0

    def test_negative_reservation_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.reserve(0, 1, -5.0)

    def test_release_tolerates_departed_peers(self):
        d, net = make_net()
        assert net.reserve(0, 1, 100.0)
        d.depart(1, 0.0)
        net.release(0, 1, 100.0)  # must not raise
        assert net.n_reserved_pairs == 0

    def test_available_bandwidth_batch(self):
        d, net = make_net(n=6)
        sources = np.array([0, 1, 2])
        batch = net.available_bandwidth_batch(sources, dst=5)
        for i, src in enumerate(sources):
            assert batch[i] == net.available_bandwidth(int(src), 5)

    def test_access_capacity_bounds_total_flows(self):
        d, net = make_net(access=1000.0)
        # Peer 0 fans out to many destinations; uplink caps the total.
        total = 0.0
        for dst in range(1, 10):
            if net.reserve(0, dst, 300.0):
                total += 300.0
        assert total <= 1000.0
        assert d[0].avail_up == pytest.approx(1000.0 - total)


class TestPairMemo:
    """The one pair memo: bounded, never stops admitting, values exact.

    Regression for the ``MEMO_CAP = 2**18`` cliff: the old dict memos
    stopped admitting entries once full, so every pair first touched
    after the cliff was re-hashed (twice) on every later touch.
    """

    @staticmethod
    def _count_hashes(monkeypatch):
        """One list entry per pair handed to ``class_indices``, the only
        place a pair is hashed (one BLAKE2b digest each)."""
        calls = []
        real = PairwiseClasses.class_indices

        def counting(self, los, his):
            calls.extend([1] * len(los))
            return real(self, los, his)

        monkeypatch.setattr(PairwiseClasses, "class_indices", counting)
        return calls

    def test_survives_more_than_2_18_distinct_pairs(self, monkeypatch):
        _, net = make_net(n=4, seed=5)
        fresh = PairwiseClasses(5 * 2 + 1, len(BANDWIDTH_CLASSES),
                                (0.35, 0.35, 0.2, 0.1))
        n_pairs = 0
        for observer in range(700):  # 700 x 400 = 280 000 > 2**18 pairs
            targets = np.arange(1000 + observer, 1400 + observer, dtype=np.int64)
            caps = net.pair_capacities(observer, targets)
            n_pairs += len(targets)
            if observer % 100 == 0:  # (a) values equal a fresh hasher
                expected = [BANDWIDTH_CLASSES[fresh.class_index(observer, int(t))]
                            for t in targets]
                assert caps.tolist() == expected
        assert n_pairs > 2**18
        # (b) the entry count stays under the stated bound.
        assert len(net._memo) == NetworkModel.MEMO_SLOTS
        assert int((net._memo >= 0).sum()) <= NetworkModel.MEMO_SLOTS
        # (c) a pair first touched *after* the flood is admitted: hashed
        # once (capacity only -- nobody asked for its latency), then
        # served from the memo on the scalar and on the batch path.
        calls = self._count_hashes(monkeypatch)
        first = net.pair_capacity(5000, 5001)
        assert len(calls) == 1
        assert net.pair_capacity(5001, 5000) == first
        again = net.pair_capacities(5000, np.array([5001], dtype=np.int64))
        assert again.tolist() == [first]
        assert len(calls) == 1

    def test_colliding_pairs_evict_but_never_lie(self, monkeypatch):
        _, wide = make_net(n=4, seed=2)
        monkeypatch.setattr(NetworkModel, "MEMO_SLOTS", 7)
        _, net = make_net(n=4, seed=2)
        targets = np.arange(40, dtype=np.int64)
        for _ in range(2):  # second sweep re-reads evicted slots
            for observer in range(20):
                assert (net.pair_capacities(observer, targets).tolist()
                        == wide.pair_capacities(observer, targets).tolist())
                assert (net.pair_latencies(observer, targets).tolist()
                        == wide.pair_latencies(observer, targets).tolist())
                assert net.latency_ms(observer, 3) == wide.latency_ms(observer, 3)
        assert len(net._memo) == 7

    def test_latency_is_hashed_only_on_request(self, monkeypatch):
        _, net = make_net()
        calls = self._count_hashes(monkeypatch)
        targets = np.array([1, 2, 3], dtype=np.int64)
        caps = net.pair_capacities(0, targets)
        assert len(calls) == 3  # one bandwidth hash per pair, no latency
        lats = net.pair_latencies(0, targets)
        assert len(calls) == 3 + 6  # completing re-derives both classes
        assert lats.tolist() == [net.latency_ms(0, t) for t in (1, 2, 3)]
        assert net.pair_capacities(0, targets).tolist() == caps.tolist()
        assert len(calls) == 9  # everything memoized now

    def test_local_pair_in_a_block(self):
        _, net = make_net()
        targets = np.array([1, 0, 2], dtype=np.int64)
        assert net.pair_capacities(0, targets)[1] == float("inf")
        assert net.pair_latencies(0, targets)[1] == 0.0
        assert net.pair_capacities(0, targets).tolist() == [
            net.pair_capacity(0, t) for t in (1, 0, 2)
        ]

    def test_batch_beta_handles_reservations_and_self(self):
        d, net = make_net(n=6)
        assert net.reserve(2, 5, 300.0)
        assert net.reserve(5, 1, 200.0)
        sources = np.array([0, 1, 2, 5, 2], dtype=np.int64)
        batch = net.available_bandwidth_batch(sources, dst=5)
        assert batch.tolist() == [
            net.available_bandwidth(int(s), 5) for s in sources
        ]
        snapshot = np.array([50.0, 1e9, 1e9, 1e9, 0.0])
        capped = net.available_bandwidth_batch(sources, 5, uplinks=snapshot)
        assert capped[0] == 50.0 and capped[4] == 0.0
        assert capped[2] == (
            min(net.pair_capacity(2, 5) - 300.0, d[5].avail_down)
        )

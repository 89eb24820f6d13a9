"""Unit tests for pairwise classes and bandwidth accounting."""

from itertools import accumulate

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import (
    BANDWIDTH_CLASSES,
    DEFAULT_BANDWIDTH_WEIGHTS,
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


def live_uplinks(d, sources):
    """The sources' live uplink residuals (the prober passes snapshots)."""
    return d.store.avail_up[d.rows_for(sources)]


def _transcribed_class(seed, weights, n_classes, a, b):
    """One pair's class, from the SplitMix64 definition in plain ints."""
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return n_classes

    def finalize(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    salt = finalize((seed + 0x9E3779B97F4A7C15) % 2**64)
    top32 = finalize(((lo << 28) | hi) ^ salt) >> 32
    w = weights or (1.0,) * n_classes
    cuts = [round(c * 2**32) for c in accumulate(x / sum(w) for x in w)]
    return sum(top32 >= cut for cut in cuts[:-1])


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
    def test_python_transcription_equals_numpy_block(self, weights):
        """The hash is golden-pinned: the numpy block and the scalar path
        must equal an independent transcription of SplitMix64's finalizer
        over ``(lo << 28 | hi) ^ salt`` with integer CDF cuts, for random
        pairs, key 0 and ids next to the ``2**28`` bound."""
        rng = np.random.default_rng(17)
        top = 2**28 - 1
        for seed in (0, 7, 2**31 + 5):
            pc = PairwiseClasses(seed, 4, weights)
            los = rng.integers(0, 2**28, size=300)
            his = np.minimum(los + rng.integers(1, 10**4, size=300), top)
            los[:6] = (0, 0, top - 1, top - 2, 0, 5)
            his[:6] = (1, top, top, top - 1, 0, 5)
            expected = [_transcribed_class(seed, weights, 4, lo, hi)
                        for lo, hi in zip(los.tolist(), his.tolist())]
            assert pc.class_indices(los, his).tolist() == expected
            assert pc.class_indices(his, los).tolist() == expected
            assert [pc.class_index(hi, lo) for lo, hi in
                    zip(los.tolist(), his.tolist())] == expected

    def test_salt_is_the_reference_splitmix64_output(self):
        """SplitMix64 from state 0 first returns 0xE220A8397B1DCDAF (the
        published reference value), which anchors the transcription."""
        assert PairwiseClasses(0, 4)._salt == 0xE220A8397B1DCDAF

    def test_scalar_equals_block_and_local_pair_is_one_past_the_end(self):
        pc = PairwiseClasses(seed=11, n_classes=5)
        targets = np.arange(0, 400, 7, dtype=np.int64)
        for observer in (0, 3, 49, 399):
            block = pc.class_indices(observer, targets).tolist()
            assert block == [pc.class_index(observer, t)
                             for t in targets.tolist()]
            assert block == pc.class_indices(targets, observer).tolist()
        assert pc.class_index(42, 42) == 5
        assert pc.class_indices(42, np.array([42, 43])).tolist()[0] == 5

    def test_class_shares_over_all_pairs_of_2000_ids(self):
        """Bandwidth shares follow the default weights, latency shares are
        uniform, and the two tables are independent: the joint table is
        the product of the marginals (within 0.003 everywhere)."""
        _, net = make_net(n=2)
        n_bw = len(BANDWIDTH_CLASSES)
        n_lat = len(LATENCY_CLASSES_MS)
        ids = np.arange(2000, dtype=np.int64)
        joint = np.zeros((n_bw, n_lat))
        for observer in range(1999):
            others = ids[observer + 1:]
            bw = net._bw_hash.class_indices(observer, others)
            lat = net._lat_hash.class_indices(observer, others)
            joint += np.bincount(bw * n_lat + lat, minlength=n_bw * n_lat
                                 ).reshape(n_bw, n_lat)
        joint /= joint.sum()
        bw_share, lat_share = joint.sum(axis=1), joint.sum(axis=0)
        assert np.all(np.abs(bw_share - DEFAULT_BANDWIDTH_WEIGHTS) < 0.003)
        assert np.all(np.abs(lat_share - 1.0 / n_lat) < 0.003)
        assert np.all(np.abs(joint - np.outer(bw_share, lat_share)) < 0.003)

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
        assert d[0].avail_up == 1e6  # the live end is credited

    def test_a_departed_end_has_no_bandwidth(self):
        d, net = make_net()
        d.depart(1, 0.0)
        assert net.available_bandwidth(0, 1) == net.available_bandwidth(1, 0) == 0.0
        assert not net.reserve(0, 1, 100.0) and not net.reserve(1, 0, 100.0)
        assert net.n_reserved_pairs == 0 and d[0].avail_up == 1e6

    def test_available_bandwidth_batch(self):
        d, net = make_net(n=6)
        sources = np.array([0, 1, 2])
        batch = net.available_bandwidth_batch(
            sources, 5, live_uplinks(d, sources)
        )
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


class TestPairBlocks:
    """Block queries answer what the scalar ones do, local pair included."""

    def test_local_pair_in_a_block(self):
        _, net = make_net()
        targets = np.array([1, 0, 2], dtype=np.int64)
        assert net.pair_capacities(0, targets)[1] == float("inf")
        assert net.pair_latencies(0, targets)[1] == 0.0
        assert net.pair_capacities(0, targets).tolist() == [
            net.pair_capacity(0, t) for t in (1, 0, 2)
        ]

    def test_block_latencies_equal_scalar(self):
        _, net = make_net(seed=4)
        targets = np.array([9, 0, 2, 2**28 - 1, 7], dtype=np.int64)
        for observer in (0, 7, 2**28 - 1):
            assert net.pair_latencies(observer, targets).tolist() == [
                net.latency_ms(observer, t) for t in targets.tolist()
            ]

    def test_directory_refuses_to_mint_id_2_28(self):
        """The pair key packs two ids into 56 bits; the bound is checked
        once, where ids are minted, not on every hop."""
        d, _ = make_net(n=2)
        d._next_id = 2**28
        with pytest.raises(OverflowError):
            d.create_peer(ResourceVector(NAMES, [1, 1]), 1e6, 0.0)
        assert d.n_alive == 2

    def test_batch_beta_handles_reservations_and_self(self):
        d, net = make_net(n=6)
        assert net.reserve(2, 5, 300.0)
        assert net.reserve(5, 1, 200.0)
        sources = np.array([0, 1, 2, 5, 2], dtype=np.int64)
        batch = net.available_bandwidth_batch(
            sources, 5, live_uplinks(d, sources)
        )
        assert batch.tolist() == [
            net.available_bandwidth(int(s), 5) for s in sources
        ]
        snapshot = np.array([50.0, 1e9, 1e9, 1e9, 0.0])
        capped = net.available_bandwidth_batch(sources, 5, uplinks=snapshot)
        assert capped[0] == 50.0 and capped[4] == 0.0
        assert capped[2] == (
            min(net.pair_capacity(2, 5) - 300.0, d[5].avail_down)
        )

"""Property tests: bandwidth reservation accounting never corrupts."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel

NAMES = ("cpu", "memory")
N_PEERS = 6
ACCESS = 1e5


def build():
    d = SoAPeerDirectory(NAMES)
    for _ in range(N_PEERS):
        d.create_peer(ResourceVector(NAMES, [100, 100]), ACCESS, 0.0)
    return d, NetworkModel(d, seed=0)


ops = st.lists(
    st.tuples(
        st.integers(0, N_PEERS - 1),       # src
        st.integers(0, N_PEERS - 1),       # dst
        st.floats(min_value=1.0, max_value=8e4, allow_nan=False),  # bw
    ),
    min_size=1,
    max_size=40,
)


def check_bounds(directory, network):
    for peer in directory.alive_peers():
        assert -1e-6 <= peer.avail_up <= peer.access_bw + 1e-6
        assert -1e-6 <= peer.avail_down <= peer.access_bw + 1e-6
    for a in range(N_PEERS):
        for b in range(a + 1, N_PEERS):
            reserved = network.pair_reserved(a, b)
            assert reserved >= -1e-6
            assert reserved <= network.pair_capacity(a, b) + 1e-6


@settings(max_examples=50, deadline=None)
@given(ops)
def test_reserve_release_roundtrip_restores_everything(schedule):
    directory, network = build()
    held = []
    for src, dst, bw in schedule:
        if network.reserve(src, dst, bw):
            held.append((src, dst, bw))
        check_bounds(directory, network)
    for src, dst, bw in reversed(held):
        network.release(src, dst, bw)
        check_bounds(directory, network)
    assert network.n_reserved_pairs == 0
    for peer in directory.alive_peers():
        assert np.isclose(peer.avail_up, ACCESS)
        assert np.isclose(peer.avail_down, ACCESS)


@settings(max_examples=50, deadline=None)
@given(ops)
def test_beta_never_exceeds_component_bounds(schedule):
    directory, network = build()
    for src, dst, bw in schedule:
        network.reserve(src, dst, bw)
        beta = network.available_bandwidth(src, dst)
        if src != dst:
            assert beta <= directory[src].avail_up + 1e-6
            assert beta <= directory[dst].avail_down + 1e-6
            assert beta <= network.pair_capacity(src, dst) - (
                network.pair_reserved(src, dst)
            ) + 1e-6
            assert beta >= 0.0


@settings(max_examples=50, deadline=None)
@given(ops)
def test_rejected_reservations_leave_no_trace(schedule):
    directory, network = build()
    for src, dst, bw in schedule:
        before_up = directory[src].avail_up
        before_down = directory[dst].avail_down
        before_pair = network.pair_reserved(src, dst)
        if not network.reserve(src, dst, bw):
            assert directory[src].avail_up == before_up
            assert directory[dst].avail_down == before_down
            assert network.pair_reserved(src, dst) == before_pair

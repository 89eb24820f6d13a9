"""Property test: resource books stay balanced under arbitrary schedules.

Hundreds of thousands of admit / complete / depart events run in the
figure experiments; if any path leaks or double-releases resources the
results silently drift.  This drives random schedules through the ledger
and asserts the conservation invariants after every event.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.sessions.admission import AdmissionError
from repro.sessions.session import SessionLedger
from repro.sim import Simulator
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
N_PEERS = 8
CAPACITY = 200.0
ACCESS = 1e5


def check_invariants(directory, network):
    for peer in directory.alive_peers():
        assert np.all(peer.available.values >= -1e-9)
        assert np.all(peer.available.values <= peer.capacity.values + 1e-9)
        assert -1e-9 <= peer.avail_up <= peer.access_bw + 1e-9
        assert -1e-9 <= peer.avail_down <= peer.access_bw + 1e-9


events = st.lists(
    st.tuples(
        st.sampled_from(["admit", "advance", "depart"]),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(events)
def test_ledger_conserves_resources(schedule):
    sim = Simulator()
    directory = SoAPeerDirectory(NAMES)
    for _ in range(N_PEERS):
        directory.create_peer(
            ResourceVector(NAMES, [CAPACITY, CAPACITY]), ACCESS, 0.0
        )
    network = NetworkModel(directory, seed=0)
    ledger = SessionLedger(sim, directory, network)
    req_id = 0

    for op, seed in schedule:
        rng = np.random.default_rng(seed)
        if op == "admit":
            alive = directory.alive_ids
            if len(alive) < 2:
                continue
            n_hops = int(rng.integers(1, 4))
            peers = [alive[int(rng.integers(len(alive)))] for _ in range(n_hops)]
            user = alive[int(rng.integers(len(alive)))]
            instances = [
                make_instance(
                    f"i/{req_id}/{k}",
                    f"s{k}",
                    QoSVector(),
                    QoSVector(),
                    ResourceVector(NAMES, rng.uniform(1, 80, 2)),
                    float(rng.uniform(1e3, 5e4)),
                )
                for k in range(n_hops)
            ]
            try:
                ledger.admit(req_id, user, instances, peers,
                             duration=float(rng.uniform(0.5, 5.0)))
            except AdmissionError:
                pass
            req_id += 1
        elif op == "advance":
            sim.run(until=sim.now + float(rng.uniform(0.1, 3.0)))
        else:  # depart
            alive = directory.alive_ids
            if len(alive) <= 2:
                continue
            victim = alive[int(rng.integers(len(alive)))]
            ledger.fail_peer(victim)
            directory.depart(victim, sim.now)
        check_invariants(directory, network)

    # Drain everything: all books must return to empty.
    sim.run()
    assert ledger.n_active == 0
    assert network.n_reserved_pairs == 0
    for peer in directory.alive_peers():
        assert np.allclose(peer.available.values, peer.capacity.values)
        assert peer.avail_up == peer.access_bw or np.isclose(
            peer.avail_up, peer.access_bw
        )
        assert np.isclose(peer.avail_down, peer.access_bw)

"""Admission over the store's rows leaves the scalar admission's bits.

``reserve_session`` / ``rollback_session`` debit and credit the
``PeerStore`` rows one peer at a time through the directory's ledger
rules.  ``tests/sessions/reference_admission.py`` keeps the scalar pass
the grid ran before, over one :class:`ScalarPeer` object per host.  A
seeded schedule drives both side by side: admissions that succeed, run
short of resources at some hop, run short of bandwidth, name a peer
twice or name a departed peer, under no faults and under injected
``admission_failure`` / ``partition`` faults; releases, departures
(which fail the departing peer's sessions with ``skip_peer`` as the grid
does, or leave some to credit it late) and arrivals that recycle rows.
After every step the alive rows' ``available``, ``avail_up`` and
``avail_down`` must have the scalar objects' bytes, and each admission
the same outcome (raised ``stage`` and message); at the end both
injectors must have emitted the same ``fault.injected`` / ``retry.*``
events.  A shortage after an earlier debit replays ``(a - r) + r``, which
need not be ``a`` in floats, so only a sequence identical to the scalar
one passes.

User peers are alive at admission here, as every production caller
guarantees: a departed user peer's downlink was a corpse's counter in the
scalar model and is "not alive" (no bandwidth) on the rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.sessions.admission import (
    AdmissionError,
    chain_edges,
    reserve_session,
    rollback_session,
)
from repro.sim import Simulator
from repro.telemetry import Telemetry
from tests.network.reference_directory import PeerDirectory
from tests.services.reference_catalog import make_instance
from tests.sessions.reference_admission import (
    ScalarNetwork,
    reference_reserve,
    reference_rollback,
)

NAMES = ("cpu", "memory")
FAULTS = FaultPlan(faults=(
    FaultSpec(kind="admission_failure", rate=0.15),
    FaultSpec(kind="partition", start=10.0, end=20.0, fraction=0.3),
))
_RECORDED = ("fault.injected", "retry.attempt", "retry.exhausted")


class _World:
    """One side of the differential: a directory, a network, an injector."""

    def __init__(self, directory, network, sim, plan, seed):
        self.directory = directory
        self.network = network
        self.telemetry = Telemetry.for_simulator(sim)
        self.injector = None
        if plan is not None:
            self.injector = FaultInjector(
                sim, plan, np.random.default_rng(seed), telemetry=self.telemetry
            )

    def events(self):
        return [
            (e.time, e.name, e.fields)
            for e in self.telemetry.bus
            if e.name in _RECORDED
        ]


def _instance(rng, k):
    cpu, mem = rng.uniform(0.0, 60.0, 2).tolist()
    bw = float(rng.choice([0.0, 2.9e4, 5.6e4, 1.3e5, 4.1e5]))
    return make_instance(
        f"s{k}/{int(rng.integers(1000))}", f"s{k}", QoSVector(), QoSVector(),
        ResourceVector(NAMES, [cpu, mem]), bw,
    )


def _same_rows(soa, ref):
    assert soa.alive_ids == ref.alive_ids
    rows = soa.alive_rows()
    alive = [ref[pid] for pid in ref.alive_ids]
    store = soa.store
    assert store.available[rows].tobytes() == np.stack(
        [p.available.values for p in alive]
    ).tobytes()
    for name in ("avail_up", "avail_down"):
        want = np.array([getattr(p, name) for p in alive], dtype=np.float64)
        assert getattr(store, name)[rows].tobytes() == want.tobytes(), name


def _admit(world, reserve, instances, peers, user_peer, retry):
    try:
        reserve(
            world.directory, world.network, instances, peers, user_peer,
            injector=world.injector, retry=retry,
        )
    except AdmissionError as exc:
        return exc.stage, str(exc)
    return None, ""


def run_schedule(seed, plan, steps=400):
    """Drive both sides through one seeded schedule; returns the tally
    of admission outcomes (``None`` for an admitted session)."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    soa_dir = SoAPeerDirectory(NAMES, initial_rows=4)
    ref_dir = PeerDirectory(NAMES)
    network = NetworkModel(soa_dir, seed=seed)
    soa = _World(soa_dir, network, sim, plan, seed)
    ref = _World(ref_dir, ScalarNetwork(ref_dir, network), sim, plan, seed)
    retry = RetryPolicy(max_retries=2)

    def arrive():
        capacity = ResourceVector(NAMES, rng.uniform(20.0, 150.0, 2))
        access = float(rng.choice([6e4, 2e5, 1e6]))
        pid = soa_dir.create_peer(capacity, access, sim.now)
        assert ref_dir.create_peer(capacity, access, sim.now) == pid

    for _ in range(10):
        arrive()
    sessions = []  # (peers, user_peer, held_res, held_bw)
    tally = {}
    for step in range(steps):
        sim.run(until=step * 0.075)
        op = rng.random()
        alive = soa_dir.alive_ids
        if op < 0.6:
            k = int(rng.integers(1, 5))
            pool = alive + [p for p in range(soa_dir._next_id) if p not in alive]
            # Mostly alive peers from a small pool (repeats), sometimes
            # a departed one.
            peers = [
                pool[int(rng.integers(len(pool)))] if rng.random() < 0.08
                else alive[int(rng.integers(min(len(alive), 6)))]
                for _ in range(k)
            ]
            user_peer = alive[int(rng.integers(len(alive)))]
            instances = [_instance(rng, i) for i in range(k)]
            got = _admit(soa, reserve_session, instances, peers, user_peer, retry)
            want = _admit(ref, reference_reserve, instances, peers, user_peer, retry)
            assert got == want
            tally[got[0]] = tally.get(got[0], 0) + 1
            if got[0] is None:
                held_res = [(p, i.resources) for p, i in zip(peers, instances)]
                held_bw = chain_edges(peers, user_peer, instances)
                sessions.append((peers, user_peer, held_res, held_bw))
        elif op < 0.8 and sessions:
            _, _, held_res, held_bw = sessions.pop(int(rng.integers(len(sessions))))
            rollback_session(soa_dir, network, held_res, held_bw)
            reference_rollback(ref_dir, ref.network, held_res, held_bw)
        elif op < 0.9 and len(alive) > 6:
            pid = alive[int(rng.integers(len(alive)))]
            if rng.random() < 0.5:  # else its sessions credit it late
                for session in [s for s in sessions if pid in (*s[0], s[1])]:
                    sessions.remove(session)
                    _, _, held_res, held_bw = session
                    rollback_session(
                        soa_dir, network, held_res, held_bw, skip_peer=pid
                    )
                    reference_rollback(
                        ref_dir, ref.network, held_res, held_bw, skip_peer=pid
                    )
            soa_dir.depart(pid, sim.now)
            ref_dir.depart(pid, sim.now)
        else:
            arrive()
        _same_rows(soa_dir, ref_dir)
        assert network._reserved == ref.network._reserved
    for _, _, held_res, held_bw in sessions:
        rollback_session(soa_dir, network, held_res, held_bw)
        reference_rollback(ref_dir, ref.network, held_res, held_bw)
    _same_rows(soa_dir, ref_dir)
    assert network._reserved == ref.network._reserved == {}
    assert soa.events() == ref.events()
    if plan is not None:
        state = soa.injector.rng.bit_generator.state
        assert state == ref.injector.rng.bit_generator.state
    return tally


@pytest.mark.parametrize("seed", range(4))
def test_unfaulted_admission_is_the_scalar_one(seed):
    tally = run_schedule(seed, None)
    # The schedule reaches every outcome it is meant to pin.
    assert tally.get(None) and tally.get("resources") and tally.get("bandwidth")


@pytest.mark.parametrize("seed", range(4))
def test_faulted_admission_is_the_scalar_one(seed):
    tally = run_schedule(seed, FAULTS)
    assert tally.get(None) and tally.get("transient")
    assert tally.get("resources") and tally.get("bandwidth")

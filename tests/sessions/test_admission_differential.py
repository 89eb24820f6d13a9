"""Admission and repair over the store's rows leave the scalar bits.

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

A second schedule repairs sessions the way recovery does: a departure
either fails a session (its user peer left) or swaps replacements in
for the dead slots through ``RecoveryManager._swap_reservations`` --
the admission pass at site ``"recovery"`` -- beside
``reference_swap``, recovery's own acquire-and-undo code before repair
reused that pass.  Replacements come from a small pool, so repairs run
short of ``R`` or of bandwidth, and one replacement sometimes serves
two dead slots; a repair either runs before the departure (instant
detection) or after it (a detection delay: the dead end has left, and
its row may be recycled); transient failures retry under the
injector's rule, on both sides alike.  After every step the rows'
bits, the link books and the fault RNG's state must agree.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.sessions.admission import (
    AdmissionError,
    TransientAdmissionError,
    chain_edges,
    reserve_session,
    rollback_session,
)
from repro.sessions.recovery import RecoveryManager
from repro.sessions.session import Session
from repro.sim import Simulator
from repro.telemetry import Telemetry
from tests.network.reference_directory import PeerDirectory
from tests.services.reference_catalog import make_instance
from tests.sessions.reference_admission import (
    ScalarNetwork,
    reference_reserve,
    reference_rollback,
    reference_swap,
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
            self.injector.retry = RetryPolicy(max_retries=2)

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


def _admit(world, reserve, instances, peers, user_peer):
    try:
        reserve(
            world.directory, world.network, instances, peers, user_peer,
            injector=world.injector,
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
            got = _admit(soa, reserve_session, instances, peers, user_peer)
            want = _admit(ref, reference_reserve, instances, peers, user_peer)
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


def _production_swap(world, session, dead_peer, new_peers):
    try:
        world.recovery._swap_reservations(session, dead_peer, new_peers)
    except TransientAdmissionError:
        return "transient"
    except AdmissionError as exc:
        return exc.stage  # "resources" or "bandwidth": a shortage
    return "ok"


def _reference_swap(world, session, dead_peer, new_peers):
    return reference_swap(
        world.directory, world.network, session, dead_peer, new_peers,
        world.injector,
    )


def _repair(world, swap, session, dead_peer, new_peers):
    """One repair and its transient retries; every attempt's outcome."""
    outcomes = []
    while True:
        outcomes.append(swap(world, session, dead_peer, new_peers))
        if outcomes[-1] != "transient" or world.injector.retry_delay(
            "recovery", len(outcomes), session_id=session.session_id
        ) is None:
            return outcomes


def _holds(session):
    return (
        list(zip(session.peers, (i.resources for i in session.instances))),
        session.connections(),
    )


def run_repair_schedule(seed, plan, steps=400):
    """Admissions, releases, arrivals and departures whose sessions are
    repaired or failed, on both sides; returns a tally of what the
    repairs ran into."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    soa_dir = SoAPeerDirectory(NAMES, initial_rows=4)
    ref_dir = PeerDirectory(NAMES)
    network = NetworkModel(soa_dir, seed=seed)
    soa = _World(soa_dir, network, sim, plan, seed)
    ref = _World(ref_dir, ScalarNetwork(ref_dir, network), sim, plan, seed)
    soa.recovery = RecoveryManager(
        sim, soa_dir, network, None, None, None, None, None,
        injector=soa.injector,
    )

    def arrive():
        capacity = ResourceVector(NAMES, rng.uniform(20.0, 150.0, 2))
        access = float(rng.choice([6e4, 2e5, 1e6]))
        pid = soa_dir.create_peer(capacity, access, sim.now)
        assert ref_dir.create_peer(capacity, access, sim.now) == pid

    def fail(session, dead_peer):
        del sessions[session.session_id]
        held_res, held_bw = _holds(session)
        rollback_session(soa_dir, network, held_res, held_bw, dead_peer)
        reference_rollback(ref_dir, ref.network, held_res, held_bw, dead_peer)

    def same_state():
        _same_rows(soa_dir, ref_dir)
        assert network._reserved == ref.network._reserved
        if plan is not None:
            state = soa.injector.rng.bit_generator.state
            assert state == ref.injector.rng.bit_generator.state

    for _ in range(10):
        arrive()
    sessions = {}
    tally = {}
    for step in range(steps):
        sim.run(until=step * 0.075)
        op = rng.random()
        alive = soa_dir.alive_ids
        if op < 0.55:
            k = int(rng.integers(1, 5))
            peers = [alive[int(rng.integers(min(len(alive), 5)))]
                     for _ in range(k)]
            user_peer = alive[int(rng.integers(len(alive)))]
            instances = [_instance(rng, i) for i in range(k)]
            got = _admit(soa, reserve_session, instances, peers, user_peer)
            assert got == _admit(
                ref, reference_reserve, instances, peers, user_peer
            )
            if got[0] is None:
                session = Session(step, step, user_peer, tuple(instances),
                                  tuple(peers), sim.now, 5.0)
                sessions[session.session_id] = session
        elif op < 0.65 and sessions:
            sid = sorted(sessions)[int(rng.integers(len(sessions)))]
            fail(sessions[sid], None)
        elif op < 0.9 and len(alive) > 6:
            dead = alive[int(rng.integers(min(len(alive), 5)))]
            delayed = rng.random() < 0.4
            if delayed:  # detected late: the dead end has already left
                soa_dir.depart(dead, sim.now)
                ref_dir.depart(dead, sim.now)
                if rng.random() < 0.5:
                    arrive()  # may recycle the dead peer's row
            pool = [p for p in soa_dir.alive_ids[:8] if p != dead]
            for sid in sorted(sessions):
                session = sessions[sid]
                if session.user_peer == dead:
                    fail(session, dead)
                    continue
                if dead not in session.peers:
                    continue
                shared = rng.random() < 0.5
                one = pool[int(rng.integers(len(pool)))]
                new_peers = tuple(
                    p if p != dead
                    else one if shared else pool[int(rng.integers(len(pool)))]
                    for p in session.peers
                )
                got = _repair(soa, _production_swap, session, dead, new_peers)
                want = _repair(ref, _reference_swap, session, dead, new_peers)
                assert [
                    "shortage" if o in ("resources", "bandwidth") else o
                    for o in got
                ] == want
                for outcome in got:
                    tally[outcome] = tally.get(outcome, 0) + 1
                if shared and session.peers.count(dead) > 1:
                    tally["shared"] = tally.get("shared", 0) + 1
                if got[-1] == "ok":
                    tally["delayed"] = tally.get("delayed", 0) + delayed
                    session.peers = new_peers
                else:
                    fail(session, dead)
            if not delayed:
                soa_dir.depart(dead, sim.now)
                ref_dir.depart(dead, sim.now)
        else:
            arrive()
        same_state()
    for session in list(sessions.values()):
        fail(session, None)
    same_state()
    assert network._reserved == {}
    assert soa.events() == ref.events()
    for kind in ("admission_failure", "partition"):
        tally[kind] = sum(
            1 for _, name, fields in soa.events()
            if name == "fault.injected" and fields["kind"] == kind
            and fields["site"] == "recovery"
        )
    return tally


def _repair_tally(plan):
    tally = Counter()
    for seed in range(4):
        tally.update(run_repair_schedule(seed, plan))
    return tally


def test_unfaulted_repair_is_the_scalar_one():
    tally = _repair_tally(None)
    # The schedules reach every case they are meant to pin.
    assert tally["ok"] and tally["delayed"] and tally["shared"]
    assert tally["resources"] and tally["bandwidth"]


def test_faulted_repair_is_the_scalar_one():
    tally = _repair_tally(FAULTS)
    assert tally["ok"] and tally["delayed"] and tally["shared"]
    assert tally["resources"] and tally["bandwidth"] and tally["transient"]
    assert tally["admission_failure"] and tally["partition"]

"""Model-based checks for the incrementally maintained alive set.

The SoA directory and the dict-of-objects reference directory
(``tests/network/reference_directory.py``, in ``src/`` until PR 23) keep
``alive_ids`` as an ascending list edited in place (append on create,
bisect + splice on depart); the SoA directory also keeps the aligned
store-row prefix ``alive_rows()`` in step instead of rebuilding it.  Hypothesis drives random create/depart sequences (rows
recycle LIFO, so rows stop being monotone in the id almost immediately)
against a plain dict model, and after *every* step requires

* ``alive_ids`` ascending and equal to the model's filter,
* ``alive_rows()`` equal to ``rows_for(alive_ids)`` (SoA),
* ``uptimes(now)`` equal to ``now - joined_at`` read peer by peer,
* ``pick_departing_peer`` choosing the id -- and leaving the generator in
  the state -- that the departure-weight expression evaluated from
  scratch on the model gives with a cloned generator (bias 0 and 1),

plus double-depart still raising.  The churn RNG stream indexes into
this sequence, so any slip here would move every seeded churn run.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resources import ResourceVector
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.soa import SoAPeerDirectory
from repro.sim import Simulator
from tests.network.reference_directory import PeerDirectory

NAMES = ("cpu", "memory")

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.floats(min_value=0.0, max_value=3.0)),
        # Which alive peer departs, as a fraction of the alive sequence.
        st.tuples(st.just("depart"), st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(st.just("pick"), st.sampled_from((0.0, 1.0))),
    ),
    min_size=1,
    max_size=60,
)


def _directory(backend):
    if backend == "soa":
        # Below the floor of 16 rows: every buffer doubles mid-schedule.
        return SoAPeerDirectory(NAMES, initial_rows=1)
    return PeerDirectory(NAMES)


def _reference_pick(alive, joined, now, bias, rng, min_alive):
    """The departure draw, evaluated from scratch on the model."""
    if len(alive) <= min_alive:
        return None
    if bias == 0.0:
        return alive[int(rng.integers(len(alive)))]
    uptimes = np.array([now - joined[pid] for pid in alive])
    weights = (1.0 + uptimes) ** (-bias)
    weights /= weights.sum()
    return alive[int(rng.choice(len(alive), p=weights))]


def _check(directory, joined, alive, now):
    ids = directory.alive_ids
    assert list(ids) == alive  # ascending by construction of the model
    assert all(type(pid) is int for pid in ids)
    assert directory.n_alive == len(alive)
    assert [p.peer_id for p in directory.alive_peers()] == alive
    up, up_ids = directory.uptimes(now)
    assert list(up_ids) == alive
    assert up.dtype == np.float64 and up.shape == (len(alive),)
    assert up.tolist() == [now - directory[pid].joined_at for pid in alive]
    assert up.tolist() == [now - joined[pid] for pid in alive]
    if isinstance(directory, SoAPeerDirectory):
        rows = directory.alive_rows()
        assert rows.dtype == np.int64
        want = directory.rows_for(np.asarray(alive, dtype=np.int64))
        assert rows.tolist() == want.tolist()
        assert (rows >= 0).all() and len(set(rows.tolist())) == len(alive)
        assert directory.store.alive[rows].all()
        assert directory.store.n_rows == len(alive)


@pytest.mark.parametrize("backend", ["soa", "object"])
@settings(max_examples=150, deadline=None)
@given(steps=_steps, seed=st.integers(min_value=0, max_value=2**16))
def test_alive_set_tracks_the_model(backend, steps, seed):
    directory = _directory(backend)
    sim = Simulator()
    joined = {}          # pid -> joined_at, every peer ever created
    alive = []           # the model: ascending ids of alive peers
    departed = []
    now = 0.0
    for op, arg in steps:
        if op == "create":
            now += arg
            pid = directory.create_peer(
                ResourceVector(NAMES, np.array([4.0, 8.0])), 1e5, joined_at=now
            )
            assert pid == len(joined)  # ids are monotone
            joined[pid] = now
            alive.append(pid)
        elif op == "depart":
            if not alive:
                continue
            pid = alive.pop(min(int(arg * len(alive)), len(alive) - 1))
            directory.depart(pid, now)
            departed.append(pid)
            assert not directory.is_alive(pid)
            with pytest.raises(ValueError):
                directory.depart(pid, now)
        else:
            sim.run(until=now)
            rng = np.random.default_rng(seed)
            clone = copy.deepcopy(rng)
            churn = ChurnProcess(
                sim, directory, ChurnConfig(5.0, departure_bias=arg),
                spawn_peer=None, on_departure=None, rng=rng,
            )
            want = _reference_pick(alive, joined, now, arg, clone, min_alive=2)
            assert churn.pick_departing_peer() == want
            assert rng.bit_generator.state == clone.bit_generator.state
        _check(directory, joined, alive, now)
    for pid in departed:  # never alive again; the SoA rows keep nothing
        assert not directory.is_alive(pid)
        if backend == "soa":
            assert directory.get(pid) is None


def test_backends_agree_on_one_interleaved_schedule():
    """The same schedule leaves both backends with the same sequence."""
    rng = np.random.default_rng(5)
    soa, obj = _directory("soa"), _directory("object")
    for step in range(400):
        if rng.random() < 0.55 or soa.n_alive < 3:
            for d in (soa, obj):
                d.create_peer(
                    ResourceVector(NAMES, np.array([1.0, 1.0])), 1e5, float(step)
                )
        else:
            pid = soa.alive_ids[int(rng.integers(soa.n_alive))]
            for d in (soa, obj):
                d.depart(pid, float(step))
        assert soa.alive_ids == obj.alive_ids
        assert soa.generation == obj.generation
    assert soa.store.rows_recycled > 0


class _Writes:
    """A sanitizer stand-in that keeps the write records."""

    def __init__(self):
        self.writes = []

    def note_write(self, plane, op, gen, n=1):
        self.writes.append((plane, op, gen, n))


def _same_directories(block, sequential, reference):
    store_a, store_b = block.store, sequential.store
    assert block.alive_ids == sequential.alive_ids == reference.alive_ids
    assert block.alive_rows().tolist() == sequential.alive_rows().tolist()
    assert block.generation == sequential.generation == reference.generation
    assert block._next_id == sequential._next_id == reference._next_id
    assert block._row_of.tolist() == sequential._row_of.tolist()
    assert store_a._free == store_b._free and store_a._high == store_b._high
    assert store_a.row_capacity == store_b.row_capacity
    assert store_a.rows_recycled == store_b.rows_recycled
    rows = block.alive_rows()
    for name in ("capacity", "available", "access_bw", "avail_up",
                 "avail_down", "joined_at", "alive", "snap_epoch"):
        a, b = getattr(store_a, name), getattr(store_b, name)
        assert a[rows].tobytes() == b[rows].tobytes(), name
    assert block.sanitizer.writes == sequential.sanitizer.writes
    assert block.sanitizer.writes == reference.sanitizer.writes
    assert [
        (p.peer_id, p.capacity.values.tolist(), p.joined_at)
        for p in block.alive_peers()
    ] == [
        (p.peer_id, p.capacity.values.tolist(), p.joined_at)
        for p in sequential.alive_peers()
    ]


@pytest.mark.parametrize("n_peers", [2, 300])
@pytest.mark.parametrize("seed", range(5))
def test_block_build_equals_the_peer_by_peer_build(seed, n_peers):
    """``create_peers`` leaves what ``create_peer`` per peer leaves, and
    the two stay equal through 20 churned minutes in which the block
    directory takes each minute's arrivals as one block (recycled rows
    included)."""
    rng = np.random.default_rng(seed)
    block, sequential = _directory("soa"), _directory("soa")
    reference = _directory("object")
    for d in (block, sequential, reference):
        d.sanitizer = _Writes()

    def arrive(scales, joined):
        block.create_peers(scales, 1e5, joined)
        for scale, at in zip(scales.tolist(), joined.tolist()):
            sequential.create_peer(scale, 1e5, at)
            reference.create_peer(
                ResourceVector(NAMES, [scale, scale]), 1e5, at
            )

    arrive(rng.uniform(100.0, 1000.0, n_peers), -rng.uniform(0.0, 120.0, n_peers))
    assert block.sanitizer.writes == [
        ("network", "peer-create", g, 1) for g in range(1, n_peers + 1)
    ]
    _same_directories(block, sequential, reference)
    for minute in range(1, 21):
        for _ in range(min(int(rng.integers(0, 5)), block.n_alive - 1)):
            pid = block.alive_ids[int(rng.integers(block.n_alive))]
            for d in (block, sequential, reference):
                d.depart(pid, float(minute))
        k = int(rng.integers(0, 5))
        arrive(rng.uniform(100.0, 1000.0, k), np.full(k, float(minute)))
        _same_directories(block, sequential, reference)
    assert block.store.rows_recycled > 0

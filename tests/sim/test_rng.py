"""Unit tests for named RNG streams."""

import numpy as np

from repro.sim import RngStreams
from repro.sim.rng import derive_seed


def fresh(streams: RngStreams, name: str) -> np.random.Generator:
    """A *new* generator for ``name``, at the state ``streams.stream(name)``
    started from."""
    return RngStreams(streams.seed).stream(name)


def spawn(streams: RngStreams, name: str) -> RngStreams:
    """A child ``RngStreams`` whose root seed is derived from ``name``."""
    return RngStreams(derive_seed(streams.seed, name))


def test_same_name_same_stream_object():
    r = RngStreams(1)
    assert r.stream("a") is r.stream("a")


def test_different_names_different_sequences():
    r = RngStreams(1)
    a = fresh(r, "a").random(8)
    b = fresh(r, "b").random(8)
    assert not np.allclose(a, b)


def test_reproducible_across_instances():
    a = fresh(RngStreams(7), "workload").random(16)
    b = fresh(RngStreams(7), "workload").random(16)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = fresh(RngStreams(1), "x").random(8)
    b = fresh(RngStreams(2), "x").random(8)
    assert not np.allclose(a, b)


def test_fresh_does_not_share_state_with_stream():
    r = RngStreams(3)
    s = r.stream("x")
    s.random(100)  # advance
    f = fresh(r, "x")
    expected = fresh(RngStreams(3), "x").random(4)
    assert np.array_equal(f.random(4), expected)


def test_spawn_isolated_child():
    r = RngStreams(5)
    c1 = fresh(spawn(r, "trial-1"), "x").random(4)
    c2 = fresh(spawn(r, "trial-2"), "x").random(4)
    parent = fresh(r, "x").random(4)
    assert not np.allclose(c1, c2)
    assert not np.allclose(c1, parent)


def test_derive_seed_stable():
    assert derive_seed(42, "abc") == derive_seed(42, "abc")
    assert derive_seed(42, "abc") != derive_seed(42, "abd")
    assert derive_seed(42, "abc") != derive_seed(43, "abc")


def test_derive_seed_is_64bit_int():
    s = derive_seed(0, "stream")
    assert isinstance(s, int)
    assert 0 <= s < 2**64

"""Claim C4: the CAN substrate routes in O(d · N^(1/d)) hops.

§3.2 allows "Chord [20] or CAN [16]" as the discovery substrate; this
bench characterizes the CAN half the way C3 characterizes Chord, and
prints them side by side: CAN's polynomial-root growth vs Chord's
logarithmic growth.  The CAN is test-side (``tests/lookup/can.py``), so
run from the repo root with ``python -m pytest``.
"""

import math

import numpy as np
import pytest

from repro.experiments.reporting import banner, format_sweep_table
from repro.lookup.chord import ChordRing
from tests.lookup.can import CanNetwork

SIZES = (64, 256, 1024)
N_KEYS = 100
DIMS = 3


def can_mean_hops(n: int, seed: int = 0) -> float:
    net = CanNetwork(dimensions=DIMS, seed=seed)
    for pid in range(n):
        net.join(pid)
    rng = np.random.default_rng(seed)
    for i in range(N_KEYS):
        net.put(f"key-{i}", i)
    hops = []
    for i in range(N_KEYS):
        _, h = net.get(f"key-{i}", from_peer=int(rng.integers(n)))
        hops.append(h)
    return float(np.mean(hops))


def chord_mean_hops(n: int, seed: int = 0) -> float:
    ring = ChordRing(bits=32, seed=seed)
    for pid in range(n):
        ring.join(pid)
    rng = np.random.default_rng(seed)
    for i in range(N_KEYS):
        ring.put(f"key-{i}", i)
    hops = []
    for i in range(N_KEYS):
        _, h = ring.get(f"key-{i}", from_peer=int(rng.integers(n)))
        hops.append(h)
    return float(np.mean(hops))


@pytest.mark.benchmark(group="claims")
def test_can_polynomial_vs_chord_logarithmic(benchmark):
    def run():
        return (
            [can_mean_hops(n) for n in SIZES],
            [chord_mean_hops(n) for n in SIZES],
        )

    can_hops, chord_hops = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(banner(
        f"Claim C4 -- CAN (d={DIMS}) vs Chord routing costs",
        "mean lookup hops per ring size",
    ))
    print(format_sweep_table(
        "N (peers)", SIZES,
        {
            f"can d={DIMS}": can_hops,
            "chord": chord_hops,
            "d/2*N^(1/d)": [DIMS / 2 * n ** (1 / DIMS) for n in SIZES],
            "log2 N": [math.log2(n) for n in SIZES],
        },
        value_format="{:10.2f}",
    ))

    # CAN stays within a small constant of its theoretical mean.
    for n, h in zip(SIZES, can_hops):
        assert h <= 2.0 * (DIMS / 2) * n ** (1 / DIMS), (n, h)
    # Both grow, CAN faster than Chord at scale (poly root vs log).
    assert can_hops[-1] > can_hops[0]
    assert chord_hops[-1] <= 1.5 * math.log2(SIZES[-1])

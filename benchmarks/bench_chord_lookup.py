"""Claim C3: the lookup substrate behaves like Chord/Gnutella should.

The paper plugs in "Chord [20] or CAN [16]" for discovery and motivates
them over flooding.  This bench verifies the substrate it actually runs
on: mean Chord lookup hops grow like O(log N), while flooding sprays a
message count that grows like O(N) -- the scalability argument of §1/§5,
measured.  The flooding overlay is test-side
(``tests/lookup/flooding.py``), so run from the repo root with
``python -m pytest``.
"""

import math

import numpy as np
import pytest

from repro.experiments.reporting import banner, format_sweep_table
from repro.lookup.chord import ChordRing
from tests.lookup.flooding import FloodingOverlay

RING_SIZES = (64, 256, 1024, 4096)
N_KEYS = 200


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


def flood_mean_messages(n: int, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    overlay = FloodingOverlay(range(n), degree=4, rng=rng)
    holders = set(rng.choice(n, size=max(1, n // 100), replace=False))
    msgs = []
    for _ in range(20):
        start = int(rng.integers(n))
        result = overlay.flood(start, lambda p: p in holders, ttl=7)
        msgs.append(result.messages)
    return float(np.mean(msgs))


@pytest.mark.benchmark(group="claims")
def test_chord_log_hops_vs_flooding_linear_messages(benchmark):
    def run():
        return (
            [chord_mean_hops(n) for n in RING_SIZES],
            [flood_mean_messages(n) for n in RING_SIZES],
        )

    chord_hops, flood_msgs = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(banner(
        "Claim C3 -- discovery substrate costs",
        "Chord mean lookup hops vs Gnutella-flood mean messages",
    ))
    print(format_sweep_table(
        "N (peers)", RING_SIZES,
        {"chord hops": chord_hops, "flood msgs": flood_msgs},
        value_format="{:10.2f}",
    ))

    # Chord: within a small constant of log2 N, and grows slowly.
    for n, h in zip(RING_SIZES, chord_hops):
        assert h <= 1.5 * math.log2(n), (n, h)
    growth_chord = chord_hops[-1] / chord_hops[0]
    growth_flood = flood_msgs[-1] / flood_msgs[0]
    # 64 -> 4096 peers: flooding cost explodes ~linearly, Chord barely moves.
    assert growth_chord < 3.0
    assert growth_flood > 10.0

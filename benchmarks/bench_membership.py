"""Churn-proportional membership: what one join + leave costs as N grows.

The claim behind the ``churn-paper`` gain is about *shape*, not one data
point: a membership event costs O(log N) search plus a C-speed splice,
and the first lookup after it costs an ordinary finger-free walk (one
bisect per hop) instead of rebuilding memoised finger tables.  This
bench sweeps the population over three decades -- 10^3, 10^4 (the
paper's §4.1 scale) and 10^5 peers -- and times, per event,

* ``directory``: ``create_peer`` + ``depart`` of a random alive peer +
  one ``uptimes()`` read (what ``ChurnProcess.pick_departing_peer``
  reads, and where the old rebuild-on-read cost landed),
* ``ring``: ``ChordRing.join`` + ``leave`` of the same peers,
* ``lookup``: the first routed lookup after the event (uncached, like
  every lookup).

Best of five repetitions of 200 events each; absolute numbers are host
dependent, the growth between decades is the assertion.
"""

import time

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.experiments.reporting import banner, format_sweep_table
from repro.lookup.chord import ChordRing
from repro.network.soa import SoAPeerDirectory

SIZES = (1_000, 10_000, 100_000)
EVENTS = 200
REPEATS = 5
NAMES = ("cpu", "memory")


def _build(n):
    directory = SoAPeerDirectory(NAMES, initial_rows=n)
    ring = ChordRing(bits=32, seed=0)
    capacity = ResourceVector(NAMES, np.array([500.0, 500.0]))
    for _ in range(n):
        ring.join(directory.create_peer(capacity, 1e5, joined_at=0.0).peer_id)
    for i in range(64):
        ring.put(f"service:{i}", i)
    return directory, ring, capacity


def _per_event_us(directory, ring, capacity, rng):
    """``(directory, ring, lookup)`` microseconds per event, one repeat."""
    t_dir = t_ring = t_lookup = 0.0
    clock = time.perf_counter
    for event in range(EVENTS):
        now = 1.0 + event
        leaver_at = int(rng.integers(directory.n_alive))
        asker_at = int(rng.integers(directory.n_alive - 1))

        t0 = clock()
        joiner = directory.create_peer(capacity, 1e5, joined_at=now).peer_id
        leaver = directory.alive_ids[leaver_at]
        directory.depart(leaver, now)
        directory.uptimes(now)
        t1 = clock()
        ring.join(joiner)
        ring.leave(leaver)
        t2 = clock()
        ring.lookup(f"service:{event % 64}", directory.alive_ids[asker_at])
        t3 = clock()

        t_dir += t1 - t0
        t_ring += t2 - t1
        t_lookup += t3 - t2
    return tuple(1e6 * t / EVENTS for t in (t_dir, t_ring, t_lookup))


def measure(n, seed=0):
    directory, ring, capacity = _build(n)
    rng = np.random.default_rng(seed)
    repeats = [
        _per_event_us(directory, ring, capacity, rng) for _ in range(REPEATS)
    ]
    assert directory.n_alive == len(ring) == n  # joins and leaves balance
    return tuple(min(column) for column in zip(*repeats))


@pytest.mark.benchmark(group="claims")
def test_membership_event_cost_grows_sublinearly(benchmark):
    costs = benchmark.pedantic(
        lambda: [measure(n) for n in SIZES], rounds=1, iterations=1
    )
    columns = {
        name: [row[i] for row in costs]
        for i, name in enumerate(("directory", "ring", "lookup"))
    }
    columns["total"] = [sum(row) for row in costs]

    print()
    print(banner(
        "Membership under churn -- cost of one join + leave + first lookup",
        f"microseconds per event, best of {REPEATS} x {EVENTS} events",
    ))
    print(format_sweep_table(
        "N (peers)", SIZES, columns, value_format="{:8.1f}",
    ))

    # 100x the peers must cost far less than 100x per event: the search
    # is logarithmic and the splices are memmoves of 8-byte slots.  A
    # per-event Python pass over the population (list rebuild, refilter,
    # finger-table flush) lands well beyond this bound at 10^5.
    small, _, large = columns["total"]
    assert large < 15.0 * small
    # The first post-churn walk stays an O(log N)-hop affair.
    assert columns["lookup"][2] < 6.0 * columns["lookup"][0]

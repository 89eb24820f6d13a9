"""Churn-proportional membership: what one join + leave costs as N grows.

The claim behind the ``churn-paper`` gain is about *shape*, not one data
point: a membership event costs O(log N) search plus a C-speed splice,
and the first lookup after it costs an ordinary finger-free walk (one
bisect per hop) instead of rebuilding memoised finger tables.  This
bench sweeps the population over three decades -- 10^3, 10^4 (the
paper's §4.1 scale) and 10^5 peers -- and times, per event,

* ``directory``: ``create_peer`` + ``depart`` of a random alive peer,
* ``ring``: ``ChordRing.join`` + ``leave`` of the same peers,
* ``lookup``: the first routed lookup after the event (uncached, like
  every lookup),
* ``uptimes``: one ``uptimes()`` read after the event (what a
  departure draw from scratch reads, and where the old rebuild-on-read
  cost landed),
* ``draw``: one ``ChurnProcess`` departure draw inside a 50-event burst
  at one ``sim.now`` (a churn minute; arrivals and departures
  alternate), net of the minute's prefix-table build,
* ``table``: that build, once per burst.

Best of five repetitions of 200 events (twenty bursts for the draw);
absolute numbers are host dependent, the growth between decades is the
assertion.  ``total`` is the membership event (directory + ring +
lookup) and is gated, and so is ``draw``.  ``uptimes`` and ``table`` are
printed beside them, not gated: each touches one uptime per alive peer,
so each is O(N) by the churn model's definition (about 300 µs of a 400
µs event at 10^5 peers), and inside the total ``uptimes`` made the ratio
swing across the bound with host noise alone.  The table is built once
per churn minute, not per event: a burst's draws share it, so a draw
amortised over the burst costs ``draw + table / 25``.
"""

import time

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.experiments.reporting import banner, format_sweep_table
from repro.lookup.chord import ChordRing
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.soa import SoAPeerDirectory
from repro.sim import Simulator

SIZES = (1_000, 10_000, 100_000)
EVENTS = 200
REPEATS = 5
BURST = 50
NAMES = ("cpu", "memory")


def _build(n):
    directory = SoAPeerDirectory(NAMES, initial_rows=n)
    ring = ChordRing(bits=32, seed=0)
    capacity = ResourceVector(NAMES, np.array([500.0, 500.0]))
    for _ in range(n):
        ring.join(directory.create_peer(capacity, 1e5, joined_at=0.0))
    for i in range(64):
        ring.put(f"service:{i}", i)
    return directory, ring, capacity


def _per_event_us(directory, ring, capacity, rng):
    """``(directory, ring, lookup, uptimes)`` microseconds per event, one
    repeat."""
    t_dir = t_ring = t_lookup = t_up = 0.0
    clock = time.perf_counter
    for event in range(EVENTS):
        now = 1.0 + event
        leaver_at = int(rng.integers(directory.n_alive))
        asker_at = int(rng.integers(directory.n_alive - 1))

        t0 = clock()
        joiner = directory.create_peer(capacity, 1e5, joined_at=now)
        leaver = directory.alive_ids[leaver_at]
        directory.depart(leaver, now)
        t1 = clock()
        ring.join(joiner)
        ring.leave(leaver)
        t2 = clock()
        ring.lookup(f"service:{event % 64}", directory.alive_ids[asker_at])
        t3 = clock()
        directory.uptimes(now)
        t4 = clock()

        t_dir += t1 - t0
        t_ring += t2 - t1
        t_lookup += t3 - t2
        t_up += t4 - t3
    return tuple(1e6 * t / EVENTS for t in (t_dir, t_ring, t_lookup, t_up))


def _draw_us(n, rng):
    """``(draw, table)`` microseconds, one repeat: per departure draw
    net of the table build, and per build (one per burst)."""
    capacity = ResourceVector(NAMES, np.array([500.0, 500.0]))
    directory = SoAPeerDirectory(NAMES, initial_rows=n)
    for uptime in rng.uniform(0.0, 120.0, n).tolist():
        directory.create_peer(capacity, 1e5, joined_at=-uptime)
    sim = Simulator()
    churn = ChurnProcess(
        sim, directory, ChurnConfig(rate_per_min=BURST),
        spawn_peer=lambda now: directory.create_peer(capacity, 1e5, now),
        on_departure=lambda pid: None, rng=rng,
    )
    spent = {"pick": 0.0, "build": 0.0}
    clock = time.perf_counter

    def timed(fn, key):
        def call(*args):
            t0 = clock()
            out = fn(*args)
            spent[key] += clock() - t0
            return out
        return call

    # Instance attributes: depart() and the pick reach them through self.
    churn.pick_departing_peer = timed(churn.pick_departing_peer, "pick")
    churn._build = timed(churn._build, "build")
    bursts = EVENTS // 10
    for minute in range(1, bursts + 1):
        sim.run(until=float(minute))
        for event in range(BURST):
            churn.arrive() if event % 2 else churn.depart()
    assert churn.n_exact_fallbacks == 0 and directory.n_alive == n
    draws = bursts * BURST // 2
    return (
        1e6 * (spent["pick"] - spent["build"]) / draws,
        1e6 * spent["build"] / bursts,
    )


def measure(n, seed=0):
    directory, ring, capacity = _build(n)
    rng = np.random.default_rng(seed)
    repeats = [
        _per_event_us(directory, ring, capacity, rng)
        + _draw_us(n, rng)
        for _ in range(REPEATS)
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
        for i, name in enumerate(
            ("directory", "ring", "lookup", "uptimes", "draw", "table")
        )
    }
    columns["total"] = [sum(row[:3]) for row in costs]

    print()
    print(banner(
        "Membership under churn -- cost of one join + leave + first lookup",
        f"microseconds per event, best of {REPEATS} x {EVENTS} events; "
        "total excludes the O(N) uptimes() read; table is per "
        f"{BURST}-event burst",
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
    # A departure draw is a searchsorted on the minute's table plus one
    # step per departure already in it; a pass over the population per
    # draw (the draw from scratch) grows ~100x here.
    small, _, large = columns["draw"]
    assert large < 3.0 * small

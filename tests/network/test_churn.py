"""Unit tests for the churn (topological variation) process."""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.soa import SoAPeerDirectory
from repro.sim import Simulator

NAMES = ("cpu", "memory")


def make(n=50, rate=10.0, bias=1.0, min_alive=2, seed=0):
    sim = Simulator()
    d = SoAPeerDirectory(NAMES)
    for i in range(n):
        d.create_peer(ResourceVector(NAMES, [100, 100]), 1e6, joined_at=-float(i))
    departures = []

    def spawn(now):
        return d.create_peer(ResourceVector(NAMES, [100, 100]), 1e6, now)

    churn = ChurnProcess(
        sim,
        d,
        ChurnConfig(rate_per_min=rate, departure_bias=bias, min_alive=min_alive),
        spawn_peer=spawn,
        on_departure=departures.append,
        rng=np.random.default_rng(seed),
    )
    return sim, d, churn, departures


class TestChurnConfig:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ChurnConfig(rate_per_min=-1)

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            ChurnConfig(rate_per_min=1, departure_bias=-0.5)


class TestChurnProcess:
    def test_event_rate_matches_config(self):
        sim, d, churn, _ = make(n=200, rate=10.0)
        churn.start()
        sim.run(until=60.0)
        events = churn.n_arrivals + churn.n_departures
        # Poisson(10/min) over 60 min: ~600 +- wide slack.
        assert 400 < events < 800

    def test_population_roughly_stationary(self):
        sim, d, churn, _ = make(n=200, rate=20.0)
        churn.start()
        sim.run(until=60.0)
        assert 120 < d.n_alive < 280

    def test_zero_rate_is_noop(self):
        sim, d, churn, departures = make(rate=0.0)
        churn.start()
        assert not sim._heap  # a zero rate schedules nothing
        sim.run(until=10.0)
        assert churn.n_arrivals == churn.n_departures == 0
        assert not departures

    def test_departure_callback_before_directory_update(self):
        sim, d, churn, departures = make(n=10, rate=0.0)
        seen_alive = []
        churn.on_departure = lambda pid: seen_alive.append(d.is_alive(pid))
        pid = churn.depart()
        assert pid is not None
        assert seen_alive == [True]  # callback ran while still alive
        assert not d.is_alive(pid)

    def test_min_alive_floor(self):
        sim, d, churn, _ = make(n=3, rate=0.0, min_alive=3)
        assert churn.depart() is None

    def test_departure_bias_prefers_young_peers(self):
        """With bias, young peers depart far more often than old ones."""
        rng = np.random.default_rng(0)
        young_departures = 0
        trials = 300
        for t in range(trials):
            sim, d, churn, _ = make(n=50, rate=0.0, bias=1.0, seed=t)
            # Peer i joined at -i: peer 0 is the youngest.
            pid = churn.pick_departing_peer()
            if d[pid].joined_at > -10:
                young_departures += 1
        # Uniform would give ~20%; the 1/(1+uptime) bias gives much more.
        assert young_departures / trials > 0.5

    def test_departure_bias_zero_is_uniform(self):
        counts = {}
        for t in range(300):
            sim, d, churn, _ = make(n=10, rate=0.0, bias=0.0, seed=t)
            pid = churn.pick_departing_peer()
            counts[pid] = counts.get(pid, 0) + 1
        # Every peer should be picked at least once over 300 draws.
        assert len(counts) == 10

    def test_arrival_assigns_current_join_time(self):
        sim, d, churn, _ = make(rate=0.0)
        sim.call_at(7.0, lambda: churn.arrive())
        sim.run(until=8.0)
        newest = max(d.alive_ids)
        assert d[newest].joined_at == 7.0

    def test_stop_halts_events(self):
        sim, d, churn, _ = make(n=100, rate=50.0)
        churn.start()
        sim.run(until=5.0)
        churn.stop()
        before = churn.n_arrivals + churn.n_departures
        sim.run(until=20.0)
        assert churn.n_arrivals + churn.n_departures == before

    def test_pending_tick_after_stop_changes_nothing(self):
        sim, d, churn, departures = make(n=100, rate=50.0)
        churn.start()
        sim.run(until=5.5)
        churn.stop()
        assert [entry[0] for entry in sim._heap] == [6.0]  # the pending tick
        state = churn.rng.bit_generator.state
        before = (churn.n_arrivals, churn.n_departures, len(departures),
                  d.generation, list(d.alive_ids))
        sim.run()
        assert sim.now == 6.0 and not sim._heap  # it fired, nothing follows
        assert churn.rng.bit_generator.state == state  # no churn draw
        assert (churn.n_arrivals, churn.n_departures, len(departures),
                d.generation, list(d.alive_ids)) == before

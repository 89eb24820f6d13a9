"""Unit tests for the request generator."""

import numpy as np
import pytest

from repro.services.applications import default_applications
from repro.sim import Simulator
from repro.workload.generator import RequestGenerator, WorkloadConfig


def make(rate=60.0, horizon=10.0, peers=(0, 1, 2), seed=0):
    sim = Simulator()
    seen = []
    gen = RequestGenerator(
        sim,
        WorkloadConfig(rate_per_min=rate, horizon=horizon),
        default_applications(),
        alive_peer_ids=lambda: list(peers),
        sink=seen.append,
        rng=np.random.default_rng(seed),
    )
    return sim, gen, seen


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(rate_per_min=0)
        with pytest.raises(ValueError):
            WorkloadConfig(horizon=0)
        with pytest.raises(ValueError):
            WorkloadConfig(duration_range=(0.0, 10.0))


class TestGeneration:
    def test_rate_approximately_honored(self):
        sim, gen, seen = make(rate=100.0, horizon=20.0)
        gen.start()
        sim.run()
        # Poisson(100/min * 20 min) = 2000 expected.
        assert 1700 < len(seen) < 2300

    def test_stops_at_horizon(self):
        sim, gen, seen = make(rate=60.0, horizon=5.0)
        gen.start()
        sim.run()
        assert all(r.arrival_time <= 5.0 for r in seen)
        assert sim.now <= 5.0 + 1e-9

    def test_request_fields_within_spec(self):
        sim, gen, seen = make(rate=200.0, horizon=5.0)
        gen.start()
        sim.run()
        apps = {a.name for a in default_applications()}
        for r in seen:
            assert r.application in apps
            assert r.qos_level in ("low", "average", "high")
            assert 1.0 <= r.session_duration <= 60.0
            assert r.peer_id in (0, 1, 2)

    def test_request_ids_unique_and_ordered(self):
        sim, gen, seen = make(rate=100.0, horizon=5.0)
        gen.start()
        sim.run()
        ids = [r.request_id for r in seen]
        assert ids == sorted(set(ids))

    def test_all_levels_and_apps_occur(self):
        sim, gen, seen = make(rate=300.0, horizon=10.0)
        gen.start()
        sim.run()
        assert {r.qos_level for r in seen} == {"low", "average", "high"}
        assert len({r.application for r in seen}) == 10

    def test_no_alive_peers_skips(self):
        sim, gen, seen = make(rate=60.0, horizon=2.0, peers=())
        gen.start()
        sim.run()
        assert seen == []

    def test_reproducible(self):
        _, gen_a, seen_a = make(seed=3)
        _, gen_b, seen_b = make(seed=3)
        sim_a, sim_b = gen_a.sim, gen_b.sim
        gen_a.start(); sim_a.run()
        gen_b.start(); sim_b.run()
        assert [(r.arrival_time, r.application) for r in seen_a] == [
            (r.arrival_time, r.application) for r in seen_b
        ]

    def test_requires_applications(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RequestGenerator(
                sim, WorkloadConfig(), [], lambda: [0],
                lambda r: None, np.random.default_rng(0),
            )


def test_qos_draw_is_rng_choice_by_index():
    """``make_request`` draws the level as ``levels[rng.integers(n)]``;
    that is ``rng.choice(levels)`` -- the same level and the same
    generator state after it -- at a fraction of the cost."""
    levels = WorkloadConfig().qos_levels
    for seed in range(200):
        by_choice = np.random.default_rng(seed)
        by_index = np.random.default_rng(seed)
        for _ in range(50):
            want = str(by_choice.choice(levels))
            assert levels[int(by_index.integers(len(levels)))] == want
        assert by_index.bit_generator.state == by_choice.bit_generator.state

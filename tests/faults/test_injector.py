"""FaultInjector: seeded decisions, ghosts, partitions and bookkeeping."""

import numpy as np

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.catalog import EVENT_CATALOG


def make_injector(*specs, seed=0, telemetry=None, sim=None):
    sim = sim or Simulator()
    plan = FaultPlan(faults=tuple(specs))
    rng = np.random.default_rng(seed)
    return FaultInjector(sim, plan, rng, telemetry=telemetry), sim


class TestDecisions:
    def test_empty_plan_never_fires(self):
        inj, _ = make_injector()
        for _ in range(50):
            assert not inj.probe_lost(1)
            assert inj.probe_delay(1) == 0.0
            assert not inj.lookup_fails("k", 1, 2)
            assert not inj.admission_fails("admission", peer=1)
            assert not inj.partitioned(1, 2)
        assert inj.n_injected == 0

    def test_rate_one_always_fires(self):
        inj, _ = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        assert all(inj.probe_lost(i) for i in range(20))
        assert inj.n_injected == 20
        assert inj.counts[("probe_loss", "probe")] == 20

    def test_window_gates_firing(self):
        inj, sim = make_injector(
            FaultSpec(kind="probe_loss", rate=1.0, start=5.0, end=6.0)
        )
        assert not inj.probe_lost(1)
        sim.run(until=5.5)
        assert inj.probe_lost(1)
        sim.run(until=6.0)
        assert not inj.probe_lost(1)

    def test_probe_delay_positive_when_firing(self):
        inj, _ = make_injector(
            FaultSpec(kind="probe_delay", rate=1.0, delay=0.5)
        )
        delays = [inj.probe_delay(1) for _ in range(50)]
        assert all(d > 0 for d in delays)
        # Exponential(0.5): the sample mean should land near the mean.
        assert 0.2 < np.mean(delays) < 1.0

    def test_same_seed_same_decisions(self):
        spec = FaultSpec(kind="lookup_failure", rate=0.5)
        a, _ = make_injector(spec, seed=42)
        b, _ = make_injector(spec, seed=42)
        seq_a = [a.lookup_fails("k", 1, 2) for _ in range(100)]
        seq_b = [b.lookup_fails("k", 1, 2) for _ in range(100)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)


class TestGhosts:
    def test_ghost_lingers_then_expires(self):
        inj, sim = make_injector(
            FaultSpec(kind="stale_state", rate=1.0, staleness=3.0)
        )
        inj.note_departure(7)
        assert inj.ghost_active(7)
        sim.run(until=2.9)
        assert inj.ghost_active(7)
        sim.run(until=3.0)
        assert not inj.ghost_active(7)
        # Expired ghosts are dropped, not re-checked forever.
        assert not inj.ghost_active(7)

    def test_no_stale_spec_no_ghost(self):
        inj, _ = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        inj.note_departure(7)
        assert not inj.ghost_active(7)


class TestPartitions:
    def test_cut_is_stable_and_symmetric(self):
        inj, _ = make_injector(FaultSpec(kind="partition", fraction=0.5))
        pairs = [(a, b) for a in range(10) for b in range(a + 1, 10)]
        first = {p: inj.partitioned(*p) for p in pairs}
        assert any(first.values()) and not all(first.values())
        for (a, b), cut in first.items():
            assert inj.partitioned(a, b) == cut == inj.partitioned(b, a)

    def test_self_pair_never_cut(self):
        inj, _ = make_injector(FaultSpec(kind="partition", fraction=0.5))
        assert not any(inj.partitioned(i, i) for i in range(20))

    def test_cut_respects_window(self):
        inj, sim = make_injector(
            FaultSpec(kind="partition", start=5.0, end=6.0, fraction=0.5)
        )
        cut_pairs = []
        sim.run(until=5.5)
        for a in range(10):
            for b in range(a + 1, 10):
                if inj.partitioned(a, b):
                    cut_pairs.append((a, b))
        assert cut_pairs
        sim.run(until=6.0)
        assert not any(inj.partitioned(a, b) for a, b in cut_pairs)

    def test_different_seeds_cut_differently(self):
        spec = FaultSpec(kind="partition", fraction=0.5)
        a, _ = make_injector(spec, seed=1)
        b, _ = make_injector(spec, seed=2)
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        assert [a.partitioned(*p) for p in pairs] != \
            [b.partitioned(*p) for p in pairs]


class TestTelemetry:
    def test_events_emitted_and_cataloged(self):
        sim = Simulator()
        tel = Telemetry.for_simulator(sim, enabled=True)
        inj, _ = make_injector(
            FaultSpec(kind="probe_loss", rate=1.0), telemetry=tel, sim=sim
        )
        inj.probe_lost(3)
        # Within the default budget of 3 retries: a jittered backoff.
        assert 0.025 <= inj.retry_delay("probe", 1, target=3) <= 0.05
        assert inj.retry_delay("probe", 4, target=3) is None  # spent
        names = [ev.name for ev in tel.bus.events()]
        assert names == ["fault.injected", "retry.attempt", "retry.exhausted"]
        for name in names:
            assert name in EVENT_CATALOG
        assert tel.metrics.counter("fault.injected").value == 1
        assert tel.metrics.counter("retry.attempts").value == 1
        assert tel.metrics.counter("retry.exhausted").value == 1

    def test_summary_tallies(self):
        inj, _ = make_injector(FaultSpec(kind="probe_loss", rate=1.0))
        inj.probe_lost(1)
        inj.probe_lost(2)
        inj.retry_delay("probe", 1)
        text = inj.summary()
        assert "2 injected" in text
        assert "1 retries" in text
        assert "probe_loss@probe" in text

"""RetryPolicy + budget exhaustion across the hardened consumers."""

import numpy as np
import pytest

from repro.core.resources import ResourceVector
from repro.core.qos import QoSVector
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.probing.prober import ProbingConfig, ProbingService
from repro.sessions.admission import (
    TransientAdmissionError,
    reserve_session,
)
from repro.sim import Simulator
from tests.probing.flood import flood, get, holds, table_of


def delays(policy: RetryPolicy, rng=None) -> list:
    """The full backoff schedule, one delay per retry of the budget."""
    return [policy.delay(k, rng) for k in range(1, policy.max_retries + 1)]
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")


class ScriptedRng:
    """Deterministic stand-in for the faults stream (scripted draws)."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestRetryPolicy:
    def test_capped_exponential_schedule(self):
        p = RetryPolicy(max_retries=5, backoff_base=0.1, backoff_cap=0.5,
                        multiplier=2.0, jitter=0.0)
        assert delays(p) == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounds(self):
        p = RetryPolicy(backoff_base=0.1, backoff_cap=10.0, multiplier=1.0,
                        jitter=0.5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = p.delay(1, rng)
            assert 0.05 - 1e-12 <= d <= 0.1 + 1e-12

    def test_no_rng_means_no_jitter(self):
        p = RetryPolicy(backoff_base=0.2, backoff_cap=1.0, jitter=0.9)
        assert p.delay(1) == pytest.approx(0.2)

    def test_seeded_jitter_is_deterministic(self):
        p = RetryPolicy(jitter=0.5)
        a = delays(p, np.random.default_rng(3))
        b = delays(p, np.random.default_rng(3))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.9)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


def build_world(n_peers=4):
    sim = Simulator()
    directory = SoAPeerDirectory(NAMES)
    for _ in range(n_peers):
        directory.create_peer(
            ResourceVector(NAMES, [100.0, 100.0]), 1e6, 0.0
        )
    network = NetworkModel(directory, seed=0)
    return sim, directory, network


def injector_for(sim, *specs, seed=0):
    return FaultInjector(
        sim, FaultPlan(faults=tuple(specs)), np.random.default_rng(seed)
    )


class TestProberExhaustion:
    def make_prober(self, sim, directory, network, injector, retries=2):
        config = ProbingConfig(
            budget=10, retry=RetryPolicy(max_retries=retries, jitter=0.0)
        )
        return ProbingService(
            sim, directory, network, config, injector=injector
        )

    def test_total_loss_degrades_to_unknown(self):
        sim, directory, network = build_world()
        inj = injector_for(sim, FaultSpec(kind="probe_loss", rate=1.0))
        prober = self.make_prober(sim, directory, network, inj, retries=2)
        a, b = directory.alive_ids[:2]
        flood(prober, a, [(b, 1, True)])
        assert prober.observe(a, b) is None
        # 1 initial + 2 retries, then exhaustion; the neighbor entry and
        # the peer itself survive (a probe failure is not a death).
        assert prober.probe_messages == 3
        assert inj.n_exhausted == 1
        assert get(table_of(prober, a), b, sim.now) is not None

    def test_exhaustion_serves_stale_snapshot(self):
        sim, directory, network = build_world()
        spec = FaultSpec(kind="probe_loss", rate=1.0, start=0.5)
        inj = injector_for(sim, spec)
        prober = self.make_prober(sim, directory, network, inj)
        a, b = directory.alive_ids[:2]
        flood(prober, a, [(b, 1, True)])
        fresh = prober.observe(a, b)
        assert fresh is not None  # epoch 0, before the loss window
        sim.run(until=1.2)  # next epoch, loss active
        flood(prober, a, [(b, 1, True)])
        stale = prober.observe(a, b)
        assert stale is not None
        assert np.array_equal(stale.availability.values,
                              fresh.availability.values)
        assert inj.n_exhausted == 1
        # The degraded snapshot is cached: same epoch, no budget re-burn.
        exhausted_before = inj.n_exhausted
        assert prober.observe(a, b) is not None
        assert inj.n_exhausted == exhausted_before

    def test_ghost_row_served_then_released_without_another_observation(self):
        """A departed peer whose ``stale_state`` ghost nobody observes again
        must not keep soft state for the rest of the run: the injector's
        expiry entry and the prober's copied snapshot row are both gone
        once the clock is past ``staleness`` and membership moves again
        (the release rides on the next departure -- a sim timer would
        outlive the session drain and move the ledger's final clock)."""
        sim, directory, network = build_world(n_peers=5)
        # Ghosts only for departures before t=5; they linger 3 minutes.
        inj = injector_for(sim, FaultSpec(
            kind="stale_state", rate=1.0, staleness=3.0, end=5.0,
        ))
        prober = self.make_prober(sim, directory, network, inj)
        a, b, c = directory.alive_ids[:3]
        flood(prober, a, [(b, 1, True)])
        fresh = prober.observe(a, b)
        sim.run(until=1.0)

        def depart(pid):  # the grid's order: injector, prober, directory
            inj.note_departure(pid)
            prober.drop_peer(pid)
            directory.depart(pid, sim.now)

        depart(b)
        directory.create_peer(  # b's store row is recycled at once
            ResourceVector(NAMES, [7.0, 7.0]), 1e6, sim.now
        )
        assert set(inj._ghosts) == set(prober._ghost_rows) == {b}
        sim.run(until=2.5)  # a later epoch: a ghost is served, not probed
        ghost = prober.observe(a, b)
        assert ghost is not None and prober.probe_messages == 1
        assert np.array_equal(ghost.availability.values,
                              fresh.availability.values)
        assert ghost.uptime == fresh.uptime

        sim.run(until=6.0)  # past staleness and nobody observed b again
        depart(c)  # outside the fault window: leaves no ghost of its own
        assert inj._ghosts == {} and prober._ghost_rows == {}
        assert prober.observe(a, b) is None  # the death is discovered now
        assert not holds(table_of(prober, a), b)

    def test_budget_counts_attempts(self):
        sim, directory, network = build_world()
        inj = injector_for(sim, FaultSpec(kind="probe_loss", rate=1.0))
        prober = self.make_prober(sim, directory, network, inj, retries=0)
        a, b = directory.alive_ids[:2]
        flood(prober, a, [(b, 1, True)])
        prober.observe(a, b)
        assert prober.probe_messages == 1  # zero-retry budget: one shot
        assert inj.n_retries == 0
        assert inj.n_exhausted == 1


class TestLookupExhaustion:
    def make_registry(self, fail_rate, retries=2, seed=0):
        from repro.lookup.chord import ChordRing
        from repro.services.applications import default_applications
        from repro.services.catalog import CatalogConfig, generate_catalog
        from repro.services.translator import AnalyticTranslator

        sim, directory, network = build_world(n_peers=10)
        ring = ChordRing(bits=16, seed=0)
        for pid in directory.alive_ids:
            ring.join(pid)
        catalog = generate_catalog(
            default_applications(),
            directory.alive_ids,
            np.random.default_rng(0),
            CatalogConfig(),
            AnalyticTranslator(NAMES),
        )
        from repro.lookup.registry import ServiceRegistry

        registry = ServiceRegistry(ring, catalog)
        inj = injector_for(
            sim, FaultSpec(kind="lookup_failure", rate=fail_rate), seed=seed
        )
        registry.configure_faults(
            inj, RetryPolicy(max_retries=retries, jitter=0.0)
        )
        return registry, inj, catalog, directory

    def test_total_failure_degrades_to_no_record(self):
        registry, inj, catalog, directory = self.make_registry(1.0)
        service = next(iter(catalog.by_service))
        specs, hops = registry.discover_service(
            service, directory.alive_ids[0]
        )
        assert specs == ()
        assert hops > 0  # every retry re-paid its routing hops
        assert inj.n_retries == 2
        assert inj.n_exhausted == 1

    def test_no_faults_finds_records(self):
        registry, inj, catalog, directory = self.make_registry(0.0)
        service = next(iter(catalog.by_service))
        specs, _ = registry.discover_service(service, directory.alive_ids[0])
        assert specs
        assert inj.n_injected == 0

    def test_retry_can_recover(self):
        # At a middling rate some queries fail first and succeed on a
        # retry: retries recorded, but fewer exhaustions than retries.
        registry, inj, catalog, directory = self.make_registry(0.4, seed=5)
        for service in list(catalog.by_service)[:8]:
            for pid in directory.alive_ids[:4]:
                registry.discover_service(service, pid)
        assert inj.n_retries > inj.n_exhausted


class TestAdmissionExhaustion:
    def make_args(self, directory):
        pid = directory.alive_ids[0]
        user = directory.alive_ids[1]
        inst = make_instance(
            "i/0", "s0", QoSVector(), QoSVector(),
            ResourceVector(NAMES, [10.0, 10.0]), 1e4,
        )
        return [inst], [pid], user

    def test_exhaustion_raises_transient(self):
        sim, directory, network = build_world()
        inj = injector_for(sim, FaultSpec(kind="admission_failure", rate=1.0))
        instances, peers, user = self.make_args(directory)
        with pytest.raises(TransientAdmissionError):
            reserve_session(
                directory, network, instances, peers, user,
                injector=inj, retry=RetryPolicy(max_retries=3, jitter=0.0),
            )
        assert inj.n_retries == 3
        assert inj.n_exhausted == 1
        # Nothing stays reserved after the failed attempts.
        peer = directory.get(peers[0])
        assert np.allclose(peer.available.values, peer.capacity.values)
        assert network.n_reserved_pairs == 0

    def test_retry_succeeds_after_transient(self):
        sim, directory, network = build_world()
        plan = FaultPlan((FaultSpec(kind="admission_failure", rate=0.5),))
        # Scripted draws: first attempt fails (0.1 < 0.5), the retry's
        # draw passes (0.9 >= 0.5) -- jitter 0 keeps the script aligned.
        inj = FaultInjector(sim, plan, ScriptedRng([0.1, 0.9]))
        instances, peers, user = self.make_args(directory)
        reserve_session(
            directory, network, instances, peers, user,
            injector=inj, retry=RetryPolicy(max_retries=3, jitter=0.0),
        )
        assert inj.n_retries == 1
        assert inj.n_exhausted == 0
        peer = directory.get(peers[0])
        assert not np.allclose(peer.available.values, peer.capacity.values)

"""Chaos properties: the books stay balanced under ANY fault plan.

Hypothesis draws randomized fault plans (rates, windows, partitions,
ghosts) and randomized schedules, runs them through the hardened stack,
and asserts the conservation invariants that no injected fault may ever
violate: resources within bounds after every event, and every ledger
drained back to empty once the run ends.  Run under
``HYPOTHESIS_PROFILE=chaos`` (the CI chaos job) for the 200-example
budget.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.qos import QoSVector
from repro.core.resources import ResourceVector
from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.sessions.admission import AdmissionError
from repro.sessions.session import SessionLedger
from repro.sim import Simulator
from tests.conftest import CHAOS_EXAMPLES
from tests.services.reference_catalog import make_instance


NAMES = ("cpu", "memory")
N_PEERS = 8
CAPACITY = 200.0
ACCESS = 1e5


# -- fault plan strategies ---------------------------------------------------
rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def fault_specs(draw):
    kind = draw(st.sampled_from(FAULT_KINDS))
    start = draw(st.floats(min_value=0.0, max_value=10.0))
    end = draw(st.one_of(
        st.none(),
        st.floats(min_value=start + 0.1, max_value=start + 30.0),
    ))
    kwargs = {"kind": kind, "rate": draw(rates), "start": start, "end": end}
    if kind == "probe_delay":
        kwargs["delay"] = draw(st.floats(min_value=0.01, max_value=2.0))
    if kind == "stale_state":
        kwargs["staleness"] = draw(st.floats(min_value=0.1, max_value=10.0))
    if kind == "partition":
        kwargs["fraction"] = draw(st.floats(min_value=0.05, max_value=0.95))
    return FaultSpec(**kwargs)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        faults=tuple(draw(st.lists(fault_specs(), min_size=1, max_size=5)))
    )


events = st.lists(
    st.tuples(
        st.sampled_from(["admit", "advance", "depart"]),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=30,
)


def check_invariants(directory, network):
    for peer in directory.alive_peers():
        assert np.all(peer.available.values >= -1e-9)
        assert np.all(peer.available.values <= peer.capacity.values + 1e-9)
        assert -1e-9 <= peer.avail_up <= peer.access_bw + 1e-9
        assert -1e-9 <= peer.avail_down <= peer.access_bw + 1e-9


def assert_drained(directory, network, ledger):
    assert ledger.n_active == 0
    assert network.n_reserved_pairs == 0
    for peer in directory.alive_peers():
        assert np.allclose(peer.available.values, peer.capacity.values)
        assert np.isclose(peer.avail_up, peer.access_bw)
        assert np.isclose(peer.avail_down, peer.access_bw)


@settings(max_examples=CHAOS_EXAMPLES, deadline=None)
@given(fault_plans(), events, st.integers(0, 2**31 - 1))
def test_faulted_ledger_conserves_resources(plan, schedule, seed):
    """Random (plan, schedule): no fault may unbalance the books."""
    sim = Simulator()
    directory = SoAPeerDirectory(NAMES)
    for _ in range(N_PEERS):
        directory.create_peer(
            ResourceVector(NAMES, [CAPACITY, CAPACITY]), ACCESS, 0.0
        )
    network = NetworkModel(directory, seed=0)
    injector = FaultInjector(sim, plan, np.random.default_rng(seed))
    injector.retry = RetryPolicy(max_retries=2)
    ledger = SessionLedger(sim, directory, network, injector=injector)
    req_id = 0

    for op, op_seed in schedule:
        rng = np.random.default_rng(op_seed)
        if op == "admit":
            alive = directory.alive_ids
            if len(alive) < 2:
                continue
            n_hops = int(rng.integers(1, 4))
            peers = [alive[int(rng.integers(len(alive)))] for _ in range(n_hops)]
            user = alive[int(rng.integers(len(alive)))]
            instances = [
                make_instance(
                    f"i/{req_id}/{k}",
                    f"s{k}",
                    QoSVector(),
                    QoSVector(),
                    ResourceVector(NAMES, rng.uniform(1, 80, 2)),
                    float(rng.uniform(1e3, 5e4)),
                )
                for k in range(n_hops)
            ]
            try:
                ledger.admit(req_id, user, instances, peers,
                             duration=float(rng.uniform(0.5, 5.0)))
            except AdmissionError:
                pass  # rejected (shortage OR exhausted transient): no residue
            req_id += 1
        elif op == "advance":
            sim.run(until=sim.now + float(rng.uniform(0.1, 3.0)))
        else:  # depart
            alive = directory.alive_ids
            if len(alive) <= 2:
                continue
            victim = alive[int(rng.integers(len(alive)))]
            injector.note_departure(victim)
            ledger.fail_peer(victim)
            directory.depart(victim, sim.now)
        check_invariants(directory, network)

    sim.run()
    assert_drained(directory, network, ledger)


@settings(max_examples=max(CHAOS_EXAMPLES // 5, 8), deadline=None)
@given(fault_plans(), st.integers(0, 2**31 - 1))
def test_faulted_grid_run_conserves_resources(plan, seed):
    """A full faulted grid run (churn + recovery) drains back to empty."""
    from repro.experiments.config import ExperimentConfig
    from repro.grid import GridConfig, P2PGrid
    from repro.network.churn import ChurnConfig
    from repro.sessions.recovery import RecoveryConfig
    from repro.workload.generator import RequestGenerator, WorkloadConfig

    config = ExperimentConfig(
        grid=GridConfig(
            n_peers=30,
            seed=seed % 1000,
            faults=plan,
            churn=ChurnConfig(rate_per_min=1.0),
            recovery=RecoveryConfig(detection_delay=0.3),
        ),
        workload=WorkloadConfig(rate_per_min=6.0, horizon=5.0,
                                duration_range=(0.5, 3.0)),
    )
    grid = P2PGrid(config.grid)
    aggregator = grid.make_aggregator("qsa")
    generator = RequestGenerator(
        grid.sim,
        config.workload,
        grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=lambda req: aggregator.aggregate(req),
        rng=grid.rngs.stream("workload"),
    )
    generator.start()
    grid.sim.run(until=config.workload.horizon)
    if grid.churn is not None:
        grid.churn.stop()
    grid.sim.run()
    check_invariants(grid.directory, grid.network)
    assert_drained(grid.directory, grid.network, grid.ledger)


@settings(max_examples=max(CHAOS_EXAMPLES // 5, 8), deadline=None)
@given(fault_plans(), st.integers(0, 2**31 - 1))
def test_faulted_run_is_reproducible(plan, seed):
    """Same (seed, plan) twice: identical outcome counters and tallies."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.grid import GridConfig
    from repro.workload.generator import WorkloadConfig

    def run():
        config = ExperimentConfig(
            grid=GridConfig(n_peers=25, seed=seed % 1000, faults=plan),
            workload=WorkloadConfig(rate_per_min=5.0, horizon=3.0,
                                    duration_range=(0.5, 2.0)),
        )
        r = run_experiment(config)
        return (r.n_requests, r.success_ratio, r.n_faults_injected,
                r.n_retries, r.n_retries_exhausted, r.fault_summary)

    assert run() == run()

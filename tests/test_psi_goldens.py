"""The ψ goldens: every named scenario's seeded outcome, pinned exactly.

``tests/goldens/psi-<name>.json`` are :func:`save_baseline` fingerprints
(ψ, request count, full status breakdown) of seed 0 under ``qsa``;
``psi-smoke-random.json`` / ``psi-smoke-fixed.json`` pin the two §4.1
comparators, which walk the QCS kernel's plan
(``VectorizedComposer.walk``) instead of taking its shortest path.  Any refactor that perturbs an RNG draw order, a
tie-break or an admission decision moves at least one of them; a change
that *means* to move them re-records with ``save_baseline`` and says so.

Last re-recorded on top of ``c4b5cab``, by the change that draws the
service catalog as one block per column per service instead of one
scalar draw per instance field: every instance's formats, quality,
``R``, ``b`` and replica set are a new realization of the same §4.1
distribution (``tests/services/test_catalog_distribution.py`` holds
both generators to it).  Before that, on top of ``3c7918f``, by the
change that derives pair classes from SplitMix64 instead of BLAKE2b and
gives the QoS compiler its own RNG stream (so ``qsa``, ``random`` and
``fixed`` compile the same user QoS for each request).
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.config import SCENARIOS, ExperimentConfig, default_scale
from repro.experiments.runner import run_experiment
from repro.grid import GridConfig, P2PGrid
from repro.probing.prober import ProbingConfig
from repro.services.catalog import CatalogConfig
from repro.workload.generator import RequestGenerator, WorkloadConfig
from tests.experiments.regression import compare_to_baseline

GOLDENS = Path(__file__).parent / "goldens"


#: golden name -> (scenario, algorithm)
GOLDEN_RUNS = {name: (name, "qsa") for name in SCENARIOS}
GOLDEN_RUNS.update(
    {f"smoke-{algorithm}": ("smoke", algorithm)
     for algorithm in ("random", "fixed")}
)


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_psi_golden(name, monkeypatch):
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
    scenario, algorithm = GOLDEN_RUNS[name]
    result = run_experiment(SCENARIOS[scenario](0).with_algorithm(algorithm))
    assert compare_to_baseline(
        result, GOLDENS / f"psi-{name}.json", tolerance=0.0
    ) == []


def test_smoke_plan_cache_counters(monkeypatch):
    """``cache.qcs_plan.hits`` / ``.misses`` of the seeded ``smoke`` run,
    re-recorded with the ψ goldens (see the module docstring): a new
    catalog is a new set of candidate instances per service.  The
    plan LRU never reaches its cap here, so nothing about how plans are
    keyed may move them: a hit is a request whose (services, user QoS,
    candidate ids) was composed before."""
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
    config = SCENARIOS["smoke"](0)
    grid = P2PGrid(replace(config.grid, telemetry=True))
    aggregator = grid.make_aggregator("qsa")
    RequestGenerator(
        grid.sim, config.workload, grid.applications,
        alive_peer_ids=lambda: grid.directory.alive_ids,
        sink=aggregator.aggregate, rng=grid.rngs.stream("workload"),
    ).start()
    grid.sim.run()
    counter = grid.telemetry.metrics.counter
    assert counter("cache.qcs_plan.hits").value == 181
    assert counter("cache.qcs_plan.misses").value == 79


def test_scenario_shapes(monkeypatch):
    """The grids ``repro serve --scenario`` (and so the repo benchmark's
    ``serve-mixed`` workload) loads cannot drift silently."""
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
    seed = 7
    expected = {
        "baseline": default_scale(100.0, 20.0, 0.0, seed),
        "churn": default_scale(100.0, 20.0, 50.0, seed),
        "heavy": default_scale(400.0, 20.0, 0.0, seed),
        "smoke": ExperimentConfig(
            grid=GridConfig(n_peers=250, probing=ProbingConfig(budget=10),
                            seed=seed),
            workload=WorkloadConfig(rate_per_min=30.0, horizon=10.0,
                                    duration_range=(1.0, 8.0)),
            drain_minutes=10.0,
        ),
        "compose-stress": ExperimentConfig(
            grid=GridConfig(
                n_peers=1000,
                probing=ProbingConfig(budget=10),
                catalog=CatalogConfig(instances_per_service=(50, 60)),
                seed=seed,
            ),
            workload=WorkloadConfig(rate_per_min=120.0, horizon=15.0,
                                    duration_range=(1.0, 8.0)),
            drain_minutes=10.0,
        ),
    }
    assert {name: make(seed) for name, make in SCENARIOS.items()} == expected

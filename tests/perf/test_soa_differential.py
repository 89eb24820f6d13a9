"""Differential proof for the array probing plane, faults included.

Production runs observe candidate blocks on the peer store's snapshot
rows -- with or without a fault injector attached; the scalar plane they
replaced (one snapshot object per peer, one target at a time, the
per-object retry / degrade loop) is ``tests/probing/reference_prober.py``,
patched into the grid here.  Which prober runs is an *implementation*
choice: for any seed, any churn rate and any fault plan, every simulated
observable -- ψ, admissions, lookup hops, and the full telemetry event
stream -- must be byte-identical.  Only wall-clock may differ.  (Until
PR 23 this file flipped ``GridConfig.peer_state_backend`` between the
SoA and the object directory; hence its name.)

The telemetry JSONL export is the strongest single check (it serializes
every event in emission order), so byte-equality of the exports implies
identical per-request outcomes and identical event interleaving.

Three fixed regime pairs (baseline / churn / faulted under the committed
CI chaos plan, ``examples/plans/ci-chaos.json``) anchor the suite; a
Hypothesis sweep then draws random small-grid configurations --
population, budget, churn, fault plans -- and re-proves equivalence on
each.
"""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan
from repro.grid import GridConfig
from repro.network.churn import ChurnConfig
from repro.probing.prober import ProbingConfig
from repro.workload.generator import WorkloadConfig
from tests.probing.reference_prober import PROBERS, patch_prober

#: The CI chaos plan (partition window [10, 20) minutes) ...
CHAOS_PLAN = FaultPlan.load(
    str(Path(__file__).parents[2] / "examples" / "plans" / "ci-chaos.json")
)
#: ... and the same plan with the window early enough for a 6-minute run.
EARLY_CHAOS_PLAN = FaultPlan(
    tuple(
        replace(spec, start=2.0, end=4.0) if spec.kind == "partition" else spec
        for spec in CHAOS_PLAN.faults
    ),
    name="ci-chaos-early",
)


def _config(
    seed=3,
    n_peers=250,
    budget=10,
    churn_rate=0.0,
    faults=None,
    rate_per_min=30.0,
    horizon=10.0,
    export=None,
):
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=n_peers,
            probing=ProbingConfig(budget=budget),
            churn=(ChurnConfig(rate_per_min=churn_rate)
                   if churn_rate > 0 else None),
            faults=faults,
            seed=seed,
            telemetry=True,
        ),
        workload=WorkloadConfig(
            rate_per_min=rate_per_min, horizon=horizon,
            duration_range=(1.0, 8.0),
        ),
        drain_minutes=10.0,
        telemetry_export=export,
    )


def _run_pair(tmp_path, monkeypatch, tag="", **kwargs):
    exports = {}
    results = {}
    for prober in PROBERS:
        path = tmp_path / f"{prober}{tag}.jsonl"
        with monkeypatch.context() as patch:
            patch_prober(patch, prober)
            results[prober] = run_experiment(
                _config(export=str(path), **kwargs)
            )
        exports[prober] = path.read_bytes()
    return results, exports


def _assert_equivalent(results, exports):
    new, ref = results["production"], results["reference"]
    assert exports["production"] == exports["reference"]
    assert new.n_requests == ref.n_requests
    assert new.success_ratio == ref.success_ratio
    assert new.mean_lookup_hops == ref.mean_lookup_hops
    assert new.n_admitted == ref.n_admitted
    assert new.probe_overhead == ref.probe_overhead
    assert new.metrics.breakdown() == ref.metrics.breakdown()
    assert new.n_faults_injected == ref.n_faults_injected
    assert new.n_retries == ref.n_retries
    assert new.n_retries_exhausted == ref.n_retries_exhausted


@pytest.mark.slow
class TestRegimePairs:
    def test_baseline(self, tmp_path, monkeypatch):
        _assert_equivalent(*_run_pair(tmp_path, monkeypatch))

    def test_churn(self, tmp_path, monkeypatch):
        _assert_equivalent(*_run_pair(tmp_path, monkeypatch, churn_rate=5.0))

    def test_faulted(self, tmp_path, monkeypatch):
        # The CI plan at the CI regime's horizon, so its partition window
        # opens and closes while requests arrive; churn feeds stale_state.
        results, exports = _run_pair(
            tmp_path, monkeypatch, faults=CHAOS_PLAN, churn_rate=5.0,
            rate_per_min=15.0, horizon=20.0,
        )
        _assert_equivalent(results, exports)
        assert results["production"].n_faults_injected > 0
        assert b'"kind": "partition", "observer"' in exports["production"]


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_peers=st.integers(min_value=60, max_value=160),
    budget=st.integers(min_value=4, max_value=20),
    churn_rate=st.sampled_from([0.0, 0.0, 3.0, 8.0]),
    faulted=st.booleans(),
)
def test_soa_differential_random_grids(
    tmp_path_factory, seed, n_peers, budget, churn_rate, faulted
):
    tmp_path = tmp_path_factory.mktemp("soa_diff")
    results, exports = _run_pair(
        tmp_path,
        pytest.MonkeyPatch(),  # _run_pair undoes each patch itself
        tag=f"-{seed}",
        seed=seed,
        n_peers=n_peers,
        budget=budget,
        churn_rate=churn_rate,
        faults=EARLY_CHAOS_PLAN if faulted else None,
        rate_per_min=25.0,
        horizon=6.0,
    )
    _assert_equivalent(results, exports)

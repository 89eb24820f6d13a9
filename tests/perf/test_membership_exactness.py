"""Exactness guard for churn-proportional membership.

One seeded 300-peer run at 10 membership events per minute, five ways:
{production prober, scalar reference prober of
``tests/probing/reference_prober.py`` patched into the grid} x
{production QCS kernel, reference dp patched in for
``QSAAggregator.compose``}, plus the reference Dijkstra with the
production prober.  Every join and leave goes through the incrementally
maintained alive set (bisect splice, aligned row prefix) and every
routed lookup through the finger-free greedy step; the five runs must
export byte-identical telemetry JSONL *and* byte-identical
determinism-sanitizer ledgers.

Byte-equality between today's paths only proves they agree with each
other, so the run is also pinned against *before*: the goldens below
were first recorded from 70be2c3 (``list.remove`` + ``np.asarray``
alive set, memoised 32-finger tables) with this same configuration, and
re-recorded on top of 3c7918f, when pair classes moved from BLAKE2b to
SplitMix64 and the QoS compiler got its own RNG stream (a new
realization of every pair class and of every request's output format),
and again on top of c4b5cab, when the catalog came to be drawn as one
block per column per service (a new realization of every instance and
replica set).  Arrivals and departures moved neither time.
"""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.grid import GridConfig
from repro.network.churn import ChurnConfig
from repro.workload.generator import WorkloadConfig
from tests.core.reference_kernels import WHOLE_RUN_VARIANTS, patch_compose
from tests.probing.reference_prober import patch_prober

#: Identical for every variant; see the module docstring for provenance.
GOLDEN = {
    "psi": 0.844898,
    "lookups": 3241,
    "lookup_hops": 16204,
    "arrivals": 117,
    "departures": 112,
}


def _run(tmp_path, monkeypatch, prober, reference=None):
    """One run; ``prober`` names the probing plane and ``reference`` the
    test-side kernel to compose with (``None``: the production one)."""
    stem = f"{prober}-{reference or 'production'}"
    config = ExperimentConfig(
        grid=GridConfig(
            n_peers=300,
            churn=ChurnConfig(rate_per_min=10.0),
            seed=23,
        ),
        workload=WorkloadConfig(
            rate_per_min=40.0, horizon=12.0, duration_range=(1.0, 6.0)
        ),
        drain_minutes=10.0,
        telemetry_export=str(tmp_path / f"{stem}.jsonl"),
        sanitize_export=str(tmp_path / f"{stem}.ledger"),
    )
    with monkeypatch.context() as patch:
        patch_prober(patch, prober)
        patch_compose(patch, reference)
        result = run_experiment(config)
    return (
        result,
        (tmp_path / f"{stem}.jsonl").read_bytes(),
        (tmp_path / f"{stem}.ledger").read_bytes(),
    )


def _observed(result, jsonl):
    hops = [
        record["hops"]
        for record in map(json.loads, jsonl.splitlines())
        if record["event"] == "lookup.done"
    ]
    return {
        "psi": round(result.success_ratio, 6),
        "lookups": len(hops),
        "lookup_hops": sum(hops),
        "arrivals": result.n_arrivals,
        "departures": result.n_departures,
    }


def test_churn_run_matches_the_parent_commit(tmp_path, monkeypatch):
    """Fast lane: the default path against the committed goldens."""
    result, jsonl, _ = _run(tmp_path, monkeypatch, "production")
    assert result.n_departures > 0 and result.n_arrivals > 0
    assert _observed(result, jsonl) == GOLDEN


@pytest.mark.slow
def test_churn_run_is_byte_identical_across_backends_and_paths(
    tmp_path, monkeypatch
):
    runs = {
        key: _run(tmp_path, monkeypatch, *key) for key in WHOLE_RUN_VARIANTS
    }
    result, jsonl, ledger = runs["production", None]
    for key, (other, other_jsonl, other_ledger) in runs.items():
        assert other_jsonl == jsonl, key
        assert other_ledger == ledger, key
        assert other.success_ratio == result.success_ratio, key
    assert _observed(result, jsonl) == GOLDEN

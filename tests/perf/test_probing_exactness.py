"""Exactness guard for the array-native probing hot path.

One seeded 300-peer churn scenario, five ways: {production prober,
scalar reference prober of ``tests/probing/reference_prober.py`` patched
into the grid} x {production QCS kernel, reference dp patched in for
``QSAAggregator.compose``}, plus the reference Dijkstra with the
production prober.  The production runs observe whole candidate blocks
on the parallel-array neighbor table and the store's snapshot rows; the
reference runs reach the same table through its scalar views
(``get``/``observe`` one target at a time) and keep one snapshot object
per peer.  All five must export
byte-identical telemetry JSONL *and* byte-identical determinism-sanitizer
ledgers (every RNG draw count and state hash, every directory/ledger
write) -- which pins the block path to the scalar semantics, and the
numpy kernel to §3.2's transcriptions over a whole churned run, without
reference to any earlier commit.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.grid import GridConfig
from repro.network.churn import ChurnConfig
from repro.probing.prober import ProbingConfig
from repro.workload.generator import WorkloadConfig
from tests.core.reference_kernels import WHOLE_RUN_VARIANTS, patch_compose
from tests.probing.reference_prober import patch_prober


def _run(tmp_path, monkeypatch, prober, reference):
    """One run; ``prober`` names the probing plane and ``reference`` the
    test-side kernel to compose with (``None``: the production one)."""
    stem = f"{prober}-{reference or 'production'}"
    config = ExperimentConfig(
        grid=GridConfig(
            n_peers=300,
            # Small enough that tables overflow and evict, long enough
            # (ttl < horizon) that soft state expires mid-run.
            probing=ProbingConfig(budget=12, ttl=4.0),
            churn=ChurnConfig(rate_per_min=8.0),
            seed=11,
        ),
        workload=WorkloadConfig(
            rate_per_min=40.0, horizon=10.0, duration_range=(1.0, 6.0)
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


@pytest.mark.slow
def test_block_path_matches_scalar_views_byte_for_byte(tmp_path, monkeypatch):
    runs = {
        key: _run(tmp_path, monkeypatch, *key) for key in WHOLE_RUN_VARIANTS
    }
    block_result, block_jsonl, block_ledger = runs["production", None]
    assert block_result.n_departures > 0  # churn actually happened
    assert block_result.n_admitted > 0
    for key, (result, jsonl, ledger) in runs.items():
        assert jsonl == block_jsonl, key
        assert ledger == block_ledger, key
        assert result.success_ratio == block_result.success_ratio, key
        assert result.probe_overhead == block_result.probe_overhead, key

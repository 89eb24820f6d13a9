"""Whole-run differential for the comparators' composition walk.

*random* and *fixed* (and A3's random-path hybrid, which borrows
*random*'s compose) pick their QoS-consistent path by walking the plan
of the QCS composer they hold (``VectorizedComposer.walk``).  The walk
they took before -- over an explicit per-pair ``ConsistencyGraph``
built per request -- is ``tests/core/reference_kernels.py``'s, and
``patch_walks`` puts it back.  Which walk runs is an implementation
choice: on a churned run, the regression fingerprint, the telemetry
JSONL export and the determinism-sanitizer ledger must be byte-identical
either way.  This is the comparators' counterpart of the QSA kernel's
reference differential (``test_membership_exactness.py``).
"""

import pytest
from benchmarks.ablations import selection_only

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.grid import GridConfig
from repro.network.churn import ChurnConfig
from repro.workload.generator import WorkloadConfig
from tests.core.reference_kernels import patch_walks
from tests.experiments.regression import fingerprint

#: label -> (algorithm, make_aggregator factory or None).
ALGORITHMS = {
    "random": ("random", None),
    "fixed": ("fixed", None),
    "random-path+phi-peers": ("qsa", selection_only),
}


def _run(tmp_path, monkeypatch, label, reference):
    algorithm, factory = ALGORITHMS[label]
    stem = f"{label}-{'reference' if reference else 'production'}"
    config = ExperimentConfig(
        grid=GridConfig(
            n_peers=300,
            churn=ChurnConfig(rate_per_min=10.0),
            seed=23,
        ),
        workload=WorkloadConfig(
            rate_per_min=60.0, horizon=12.0, duration_range=(1.0, 6.0)
        ),
        algorithm=algorithm,
        drain_minutes=10.0,
        telemetry_export=str(tmp_path / f"{stem}.jsonl"),
        sanitize_export=str(tmp_path / f"{stem}.ledger"),
    )
    with monkeypatch.context() as patch:
        if reference:
            patch_walks(patch)
        result = run_experiment(config, make_aggregator=factory)
    return (
        result,
        (tmp_path / f"{stem}.jsonl").read_bytes(),
        (tmp_path / f"{stem}.ledger").read_bytes(),
    )


@pytest.mark.parametrize("label", sorted(ALGORITHMS))
def test_plan_walk_run_is_byte_identical_to_graph_walk_run(
    tmp_path, monkeypatch, label
):
    result, jsonl, ledger = _run(tmp_path, monkeypatch, label, False)
    ref, ref_jsonl, ref_ledger = _run(tmp_path, monkeypatch, label, True)
    assert result.n_departures > 0 and result.n_arrivals > 0
    assert 0 < result.n_admitted < result.n_requests
    assert fingerprint(result) == fingerprint(ref)
    assert jsonl == ref_jsonl
    assert ledger == ref_ledger

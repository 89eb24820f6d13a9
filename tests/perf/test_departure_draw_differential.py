"""Whole-run exactness of the departure draw on the prefix table.

One seeded 1 000-peer run at 50 membership events per minute, twice:
once with the draw from scratch of ``tests/network/reference_churn.py``
patched in for ``ChurnProcess.pick_departing_peer`` (three O(N) passes
per departure, the body the method had before the table), once on the
production path (one prefix table per churn minute, edited per event).
Every departure id feeds the session ledger, the catalog, the DHT and
the prober, so the two runs must agree on the regression fingerprint
(ψ, request count, status breakdown) and export byte-identical telemetry
JSONL and determinism-sanitizer ledgers (every RNG draw count and state
hash, every membership write and its generation).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.grid import GridConfig
from repro.network.churn import ChurnConfig, ChurnProcess
from repro.probing.prober import ProbingConfig
from repro.workload.generator import WorkloadConfig
from tests.experiments.regression import fingerprint
from tests.network.reference_churn import patch_pick


def _run(tmp_path, monkeypatch, stem, reference):
    config = ExperimentConfig(
        grid=GridConfig(
            n_peers=1000,
            probing=ProbingConfig(budget=10),
            churn=ChurnConfig(rate_per_min=50.0),
            seed=5,
        ),
        workload=WorkloadConfig(
            rate_per_min=40.0, horizon=10.0, duration_range=(1.0, 6.0)
        ),
        drain_minutes=5.0,
        telemetry_export=str(tmp_path / f"{stem}.jsonl"),
        sanitize_export=str(tmp_path / f"{stem}.ledger"),
    )
    with monkeypatch.context() as patch:
        if reference:
            patch_pick(patch)
        result = run_experiment(config)
    return (
        result,
        (tmp_path / f"{stem}.jsonl").read_bytes(),
        (tmp_path / f"{stem}.ledger").read_bytes(),
    )


def test_table_draw_run_matches_the_draw_from_scratch(tmp_path, monkeypatch):
    decided = []
    table_pick = ChurnProcess._table_pick
    monkeypatch.setattr(
        ChurnProcess, "_table_pick",
        lambda self, draw: decided.append(table_pick(self, draw)) or decided[-1],
    )
    result, jsonl, ledger = _run(tmp_path, monkeypatch, "table", False)
    # The production run decided its departures on the table.
    assert result.n_departures > 100
    assert sum(pid is not None for pid in decided) == len(decided) > 100

    reference, ref_jsonl, ref_ledger = _run(tmp_path, monkeypatch, "ref", True)
    assert len(decided) == result.n_departures  # the reference ran none
    assert fingerprint(result) == fingerprint(reference)
    assert (result.n_arrivals, result.n_departures) == (
        reference.n_arrivals, reference.n_departures,
    )
    assert jsonl == ref_jsonl
    assert ledger == ref_ledger

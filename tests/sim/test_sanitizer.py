"""The determinism sanitizer: unit behaviour and run-level differentials.

The differential tests are the tentpole contract of ``repro sanitize``:

* two runs with identical seeds export **byte-identical** ledgers,
* the production prober and the scalar reference prober
  (``tests/probing/reference_prober.py``) export byte-identical ledgers
  for the same seed and fault plan (the ledger deliberately records no
  implementation identity),
* a seed or config change is named at its *first* divergent record, and
* turning the sanitizer on leaves the telemetry export byte-identical
  (the instrument never feeds back into the run).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan
from repro.grid import GridConfig
from repro.network.churn import ChurnConfig
from repro.probing.prober import ProbingConfig
from repro.sim.rng import RngStreams
from repro.sim.sanitizer import (
    LEDGER_VERSION,
    Sanitizer,
    compare_ledger_files,
    compare_ledgers,
)
from repro.workload.generator import WorkloadConfig
from tests.probing.reference_prober import patch_prober


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def records_of(sanitizer: Sanitizer):
    return [json.loads(line) for line in sanitizer.render_lines()]


class TestSanitizerUnit:
    def test_proxy_draws_match_the_raw_generator(self):
        clock = FakeClock()
        sanitizer = Sanitizer(clock)
        wrapped = sanitizer.wrap_stream("s", np.random.default_rng(7))
        raw = np.random.default_rng(7)
        assert wrapped.random() == raw.random()
        assert list(wrapped.integers(0, 10, size=5)) == list(
            raw.integers(0, 10, size=5)
        )
        assert wrapped.normal() == raw.normal()

    def test_draws_are_counted_per_stream(self):
        sanitizer = Sanitizer(FakeClock())
        a = sanitizer.wrap_stream("a", np.random.default_rng(0))
        b = sanitizer.wrap_stream("b", np.random.default_rng(1))
        a.random()
        a.random()
        b.integers(0, 4)
        final = records_of(sanitizer)[-1]
        assert final["kind"] == "final"
        assert final["streams"]["a"]["draws"] == 2
        assert final["streams"]["b"]["draws"] == 1

    def test_vectorized_call_is_one_draw_event(self):
        sanitizer = Sanitizer(FakeClock())
        s = sanitizer.wrap_stream("s", np.random.default_rng(0))
        s.random(size=1000)
        assert records_of(sanitizer)[-1]["streams"]["s"]["draws"] == 1

    def test_passthrough_attributes_are_unwrapped(self):
        sanitizer = Sanitizer(FakeClock())
        s = sanitizer.wrap_stream("s", np.random.default_rng(0))
        assert s.bit_generator.state["bit_generator"] == "PCG64"
        assert records_of(sanitizer)[-1]["streams"]["s"]["draws"] == 0

    def test_epoch_checkpoints_on_sim_clock_boundaries(self):
        clock = FakeClock()
        sanitizer = Sanitizer(clock)  # epochs are EPOCH = 5 minutes wide
        sanitizer.begin(seed=0)
        s = sanitizer.wrap_stream("s", np.random.default_rng(0))
        s.random()          # t=0: first draw checkpoints epoch 0
        clock.now = 3.0
        s.random()          # same epoch: no new checkpoint
        clock.now = 12.5
        s.random()          # epoch 10 checkpoint (lazy: epoch 5 skipped)
        epochs = [r for r in records_of(sanitizer) if r["kind"] == "epoch"]
        assert [e["t"] for e in epochs] == [0.0, 10.0]
        # The epoch-10 snapshot hashes pre-draw state: 2 draws so far.
        assert epochs[1]["streams"]["s"]["draws"] == 2

    def test_state_hash_reflects_generator_state(self):
        sanitizer = Sanitizer(FakeClock())
        s = sanitizer.wrap_stream("s", np.random.default_rng(0))
        s.random()
        first = records_of(sanitizer)[-1]["streams"]["s"]["state"]
        s.random()
        sanitizer._finalized = False  # re-finalize for the test
        second = records_of(sanitizer)[-1]["streams"]["s"]["state"]
        assert first != second

    def test_write_records_carry_provenance(self):
        clock = FakeClock()
        clock.now = 7.25
        sanitizer = Sanitizer(clock)
        sanitizer.note_write("network", "peer-depart", gen=41, n=1)
        write = [r for r in records_of(sanitizer) if r["kind"] == "write"][0]
        assert write == {
            "kind": "write", "plane": "network", "op": "peer-depart",
            "t": 7.25, "gen": 41, "n": 1,
        }

    def test_meta_record_has_no_backend_identity(self):
        sanitizer = Sanitizer(FakeClock())
        sanitizer.begin(seed=9)
        meta = records_of(sanitizer)[0]
        assert meta == {
            "kind": "meta", "version": LEDGER_VERSION,
            "seed": 9, "epoch": 5.0,
        }

    def test_double_wrap_is_rejected(self):
        sanitizer = Sanitizer(FakeClock())
        sanitizer.wrap_stream("s", np.random.default_rng(0))
        with pytest.raises(ValueError, match="already wrapped"):
            sanitizer.wrap_stream("s", np.random.default_rng(1))

    def test_export_jsonl_is_canonical(self, tmp_path):
        sanitizer = Sanitizer(FakeClock())
        sanitizer.begin(seed=0)
        sanitizer.wrap_stream("s", np.random.default_rng(0))
        out = tmp_path / "ledger.jsonl"
        n = sanitizer.export_jsonl(str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == n == sanitizer.n_records
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )

    def test_rng_streams_wraps_through_the_sanitizer(self):
        sanitizer = Sanitizer(FakeClock())
        rngs = RngStreams(seed=3, sanitizer=sanitizer)
        rngs.stream("churn").random()
        assert rngs.stream("churn") is rngs.stream("churn")
        assert records_of(sanitizer)[-1]["streams"]["churn"]["draws"] == 1


class TestCompare:
    def _ledger(self, seed=0, draws=1):
        clock = FakeClock()
        sanitizer = Sanitizer(clock)
        sanitizer.begin(seed=seed)
        s = sanitizer.wrap_stream("s", np.random.default_rng(seed))
        for _ in range(draws):
            s.random()
        return sanitizer.render_lines()

    def test_identical_ledgers(self):
        verdict = compare_ledgers(self._ledger(), self._ledger())
        assert verdict.identical
        assert verdict.render() == "ledgers identical"

    def test_seed_divergence_names_the_meta_record(self):
        verdict = compare_ledgers(self._ledger(seed=0), self._ledger(seed=1))
        assert not verdict.identical
        assert verdict.line == 1
        assert "seed=0 vs 1" in verdict.reason

    def test_draw_count_divergence_names_the_stream(self):
        verdict = compare_ledgers(
            self._ledger(draws=2), self._ledger(draws=5)
        )
        assert not verdict.identical
        assert "'s'" in verdict.reason
        assert "2 draws vs 5" in verdict.reason

    def test_truncated_ledger_is_named(self):
        lines = self._ledger()
        verdict = compare_ledgers(lines, lines[:-1])
        assert not verdict.identical
        assert "ends after" in verdict.reason

    def test_empty_ledgers_are_an_error(self):
        with pytest.raises(ValueError):
            compare_ledgers([], [])


def small_config(seed: int = 11) -> ExperimentConfig:
    grid = GridConfig(
        n_peers=200,
        seed=seed,
        probing=ProbingConfig(budget=10),
        churn=ChurnConfig(rate_per_min=4.0),
    )
    workload = WorkloadConfig(rate_per_min=30.0, horizon=4.0)
    return ExperimentConfig(grid=grid, workload=workload, drain_minutes=15.0)


def run_with_ledger(config: ExperimentConfig, path: Path):
    result = run_experiment(config.with_sanitize(str(path)))
    assert result.n_sanitize_records > 0
    return result


class TestRunDifferential:
    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_with_ledger(small_config(), a)
        run_with_ledger(small_config(), b)
        assert a.read_bytes() == b.read_bytes()
        assert compare_ledger_files(str(a), str(b)).identical

    def test_production_and_reference_probers_agree(self, tmp_path, monkeypatch):
        """The cross-implementation pair: the array probing plane against
        the scalar reference prober, same seed, under the CI chaos plan."""
        plan = FaultPlan.load(str(
            Path(__file__).parents[2] / "examples" / "plans" / "ci-chaos.json"
        ))
        config = small_config().with_faults(plan)
        a, b = tmp_path / "production.jsonl", tmp_path / "reference.jsonl"
        run_with_ledger(config, a)
        patch_prober(monkeypatch, "reference")
        run_with_ledger(config, b)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_mismatch_is_named_at_the_first_record(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_with_ledger(small_config(seed=11), a)
        run_with_ledger(small_config(seed=12), b)
        verdict = compare_ledger_files(str(a), str(b))
        assert not verdict.identical
        assert verdict.line == 1
        assert "seed" in verdict.reason

    def test_behaviour_divergence_is_localised(self, tmp_path):
        # Same seed, different churn rate: the meta records agree, so the
        # first divergence is a real draw/write difference deep in the
        # run -- the differ must localise it, not just say "different".
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_with_ledger(small_config(), a)
        config = small_config()
        config = replace(
            config, grid=replace(config.grid, churn=ChurnConfig(rate_per_min=8.0))
        )
        run_with_ledger(config, b)
        verdict = compare_ledger_files(str(a), str(b))
        assert not verdict.identical
        assert verdict.line > 1
        assert "diverge" in verdict.render()

    def test_ledger_records_peer_creation_writes(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        config = small_config()
        result = run_with_ledger(config, path)
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        creates = [
            r for r in records
            if r["kind"] == "write" and r["op"] == "peer-create"
        ]
        # One write per peer: the initial population (built as one
        # block) plus every churn arrival; generations stamp strictly
        # increasing membership versions.
        assert result.n_arrivals > 0
        assert len(creates) == config.grid.n_peers + result.n_arrivals
        assert [r["gen"] for r in creates[: config.grid.n_peers]] == list(
            range(1, config.grid.n_peers + 1)
        )
        gens = [r["gen"] for r in records if r["kind"] == "write"]
        assert gens == sorted(gens) or len(set(gens)) > 1
        admits = [
            r for r in records
            if r["kind"] == "write" and r["op"] == "admit"
        ]
        assert admits and all(r["plane"] == "sessions" for r in admits)

    def test_telemetry_is_byte_identical_with_sanitizer_on(self, tmp_path):
        off = tmp_path / "off.jsonl"
        on = tmp_path / "on.jsonl"
        run_experiment(small_config().with_telemetry(str(off)))
        run_experiment(
            small_config()
            .with_telemetry(str(on))
            .with_sanitize(str(tmp_path / "ledger.jsonl"))
        )
        assert off.read_bytes() == on.read_bytes()

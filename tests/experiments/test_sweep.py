"""The one paired sweep: its table, its pairing, and the A3 hybrids."""

import json

import pytest
from benchmarks.ablations import TIER_VARIANTS

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import Variant, algorithm_variants, paired_sweep
from repro.grid import ALGORITHMS, GridConfig
from repro.network.churn import ChurnConfig
from repro.workload.generator import WorkloadConfig
from tests.experiments.regression import fingerprint


def tiny(rate=20.0, horizon=4.0, churn=0.0, seed=0):
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=200,
            seed=seed,
            churn=ChurnConfig(rate_per_min=churn) if churn > 0 else None,
        ),
        workload=WorkloadConfig(rate_per_min=rate, horizon=horizon,
                                duration_range=(1.0, 3.0)),
        drain_minutes=5.0,
    )


def arrivals(result):
    """The request stream a run saw, in request-id order."""
    return [
        (r.request_id, r.arrival_time, r.application, r.qos_level)
        for r in sorted(result.metrics.records.values(),
                        key=lambda r: r.request_id)
    ]


def n_admitted_in_breakdown(result):
    """Admitted requests end as completed or as a failed session."""
    return sum(
        count for status, count in result.metrics.breakdown().items()
        if status == "completed" or status.startswith("session-failed")
    )


class TestPairing:
    @pytest.fixture(scope="class")
    def table(self):
        every_arm = algorithm_variants(*ALGORITHMS) + TIER_VARIANTS[1:3] + (
            Variant("uptime-blind", "qsa", {"uptime_filter": False}),
        )
        return paired_sweep(
            [("calm", tiny()), ("churn", tiny(churn=6.0))],
            every_arm,
            seeds=(0, 1),
        )

    def test_table_is_points_by_seeds_by_variants(self, table):
        assert [(r.label, r.seed) for r in table.rows[::6]] == [
            ("calm", 0), ("calm", 1), ("churn", 0), ("churn", 1)
        ]
        assert len(table.rows) == 2 * 2 * 6
        assert [r.variant for r in table.rows[:6]] == table.variants

    def test_every_variant_sees_the_same_requests(self, table):
        for label in ("calm", "churn"):
            for seed in (0, 1):
                streams = [
                    arrivals(row.result)
                    for row in table.select(label=label, seed=seed)
                ]
                assert streams[0], "the run saw no requests"
                assert all(s == streams[0] for s in streams[1:])

    def test_seeds_see_different_requests(self, table):
        a, b = (arrivals(table.select(label="calm", variant="qsa", seed=s)[0].result)
                for s in (0, 1))
        assert a != b

    def test_n_admitted_matches_breakdown(self, table):
        for row in table.rows:
            assert row.result.n_admitted == n_admitted_in_breakdown(row.result)

    def test_hybrids_run_and_are_named(self, table):
        for name in ("qcs+random-peers", "random-path+phi-peers"):
            for row in table.select(variant=name):
                assert row.result.algorithm == name
                assert row.result.n_requests > 0
                assert row.result.n_admitted > 0
                assert row.result.n_routed_discoveries > 0

    def test_row_seed_is_the_fingerprinted_seed(self, table):
        row = table.rows[0]
        assert fingerprint(row.result)["seed"] == row.seed


class TestHybridTelemetry:
    @pytest.mark.parametrize("index", [1, 2])
    def test_export_holds_one_setup_per_request(self, tmp_path, index):
        path = tmp_path / "events.jsonl"
        table = paired_sweep(
            [("tiny", tiny().with_telemetry(str(path)))],
            [TIER_VARIANTS[index]],
            (0,),
        )
        result = table.rows[0].result
        events = [json.loads(line) for line in path.read_text().splitlines()]
        setups = [e for e in events if e["event"] == "request.setup"]
        assert result.n_telemetry_events == len(events)
        assert len(setups) == result.n_requests > 0
        assert sorted(e["request_id"] for e in setups) == sorted(
            result.metrics.records
        )


class TestSweepArguments:
    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            paired_sweep([("x", tiny())], algorithm_variants("qsa"), seeds=())

    def test_seed_replaces_the_configs_own(self):
        table = paired_sweep(
            [("a", tiny(horizon=2.0, seed=3))], algorithm_variants("random"), (7,)
        )
        assert table.rows[0].seed == 7
        assert fingerprint(table.rows[0].result)["seed"] == 7

    def test_variant_sets_algorithm_and_options(self):
        blind = Variant("blind", "qsa", {"uptime_filter": False})
        assert blind.configure(tiny()).algorithm_options == {
            "uptime_filter": False
        }
        assert Variant("random").configure(tiny()).algorithm == "random"

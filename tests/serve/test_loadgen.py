"""Loadgen integration: real concurrent HTTP traffic against the server."""

import pytest

from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    SoakConfig,
    SoakReport,
    _thirds,
    run_loadgen,
    run_soak,
)


class TestClosedLoop:
    def test_closed_loop_accounts_every_request(self, server):
        report = run_loadgen(LoadgenConfig(
            host=server.host,
            port=server.port,
            n_requests=40,
            concurrency=3,
            mode="closed",
            seed=1,
            release_ratio=0.5,
        ))
        assert report.sent == 40
        assert report.admitted + report.rejected + report.errors == 40
        assert report.errors == 0
        assert len(report.latencies_us) == 40
        assert 0.0 <= report.psi <= 1.0
        assert report.wall_seconds > 0
        assert report.requests_per_sec > 0
        lat = report.latency_summary_us()
        assert lat["count"] == 40
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

    def test_released_sessions_are_torn_down_on_the_server(self, server):
        before = server.runtime.n_released
        report = run_loadgen(LoadgenConfig(
            host=server.host,
            port=server.port,
            n_requests=20,
            concurrency=2,
            seed=2,
            release_ratio=1.0,
        ))
        assert report.released == report.admitted > 0
        assert server.runtime.n_released == before + report.released


class TestOpenLoop:
    def test_open_loop_completes_at_high_offered_rate(self, server):
        report = run_loadgen(LoadgenConfig(
            host=server.host,
            port=server.port,
            n_requests=15,
            concurrency=3,
            mode="open",
            rate_per_sec=500.0,
            seed=3,
            release_ratio=0.0,
        ))
        assert report.sent == 15
        assert report.errors == 0
        assert report.released == 0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "burst"},
        {"n_requests": 0},
        {"concurrency": 0},
        {"rate_per_sec": 0.0},
        {"release_ratio": 1.5},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadgenConfig(**kwargs)

    def test_empty_report_percentiles_are_zero(self):
        lat = LoadgenReport().latency_summary_us()
        assert lat == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                       "p99": 0.0, "max": 0.0}

    def test_request_draws_are_seed_deterministic(self):
        from repro.serve.loadgen import _draw_requests

        a = _draw_requests(LoadgenConfig(n_requests=30, seed=9))
        b = _draw_requests(LoadgenConfig(n_requests=30, seed=9))
        c = _draw_requests(LoadgenConfig(n_requests=30, seed=10))
        assert a == b
        assert a != c


class TestSoak:
    def test_short_soak_smoke(self, server):
        report = run_soak(SoakConfig(
            host=server.host,
            port=server.port,
            duration_seconds=2.0,
            rate_per_sec=30.0,
            concurrency=2,
            seed=5,
            sample_interval=0.25,
        ))
        assert report.loadgen.sent > 0
        assert report.loadgen.errors == 0
        assert report.samples, "the sampler thread collected nothing"
        sample = report.samples[0]
        assert set(sample) >= {"wall_s", "rss_kb", "slo_state",
                               "active_sessions", "events_retained",
                               "traces_retained"}
        assert 0 <= sample["traces_retained"] <= 256
        assert report.slo_states  # worst-states observed, deduplicated
        assert set(report.slo_states) <= {"ok", "warn", "breach"}
        doc = report.as_dict()
        assert set(doc) == {"loadgen", "samples", "slo_states",
                            "rss_drift", "latency_drift", "drift_ok"}

    def test_config_validation(self):
        for kwargs in ({"duration_seconds": 0.0}, {"rate_per_sec": -1.0},
                       {"concurrency": 0}, {"sample_interval": 0.0},
                       {"release_ratio": 2.0}):
            with pytest.raises(ValueError):
                SoakConfig(**kwargs)

    def test_thirds_splits_and_guards(self):
        assert _thirds([1.0] * 5) is None
        first, last = _thirds([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        assert first == pytest.approx(1.0)
        assert last == pytest.approx(3.0)

    def test_drift_verdicts(self):
        flat = SoakReport()
        flat.samples = [{"rss_kb": 1000} for _ in range(9)]
        flat.loadgen.latencies_us = [100.0] * 9
        assert flat.rss_drift() == pytest.approx(1.0)
        assert flat.latency_drift() == pytest.approx(1.0)
        assert flat.drift_ok()

        drifting = SoakReport()
        drifting.samples = [{"rss_kb": 1000 * (i + 1)} for i in range(9)]
        drifting.loadgen.latencies_us = [100.0 * (i + 1) for i in range(9)]
        assert drifting.rss_drift() > SoakReport.RSS_DRIFT_LIMIT
        assert drifting.latency_drift() > SoakReport.LATENCY_DRIFT_LIMIT
        assert not drifting.drift_ok()

    def test_no_samples_means_no_verdict(self):
        empty = SoakReport()
        assert empty.rss_drift() is None
        assert empty.latency_drift() is None
        assert empty.drift_ok()  # absence of data is not a failure

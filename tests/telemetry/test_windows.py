"""Sliding windows: ring semantics, clock jumps, and the differential
guarantee that attaching the registry tap leaves seeded telemetry
byte-identical.
"""

import pytest

from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.windows import SlidingWindow, WindowConfig, WindowedMetrics


class TestWindowConfig:
    def test_bucket_count(self):
        assert WindowConfig(width=5.0, step=0.25).n_buckets == 20
        assert WindowConfig(width=1.0, step=1.0).n_buckets == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(width=0.0)
        with pytest.raises(ValueError):
            WindowConfig(width=1.0, step=2.0)
        with pytest.raises(ValueError):
            WindowConfig(sample_cap=0)


class TestSlidingWindow:
    def test_values_age_out(self):
        w = SlidingWindow("x", config=WindowConfig(width=2.0, step=0.5))
        w.observe(0.1, 10.0)
        w.observe(1.0, 20.0)
        assert w.count(1.0) == 2
        # 0.1 falls out once the window has slid past it.
        assert w.count(2.9) == 1
        assert w.count(10.0) == 0

    def test_stats_over_live_slots(self):
        w = SlidingWindow("x", config=WindowConfig(width=5.0, step=1.0))
        for t, v in ((0.5, 1.0), (1.5, 3.0), (2.5, 5.0)):
            w.observe(t, v)
        s = w.stats(3.0)
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(3.0)
        assert s["p50"] == pytest.approx(3.0)
        assert s["p99"] == pytest.approx(5.0)

    def test_rate_uses_covered_span_not_width(self):
        # A window younger than its width must not under-report rate.
        w = SlidingWindow("x", config=WindowConfig(width=5.0, step=0.5))
        w.observe(0.0, 1.0)
        w.observe(1.0, 1.0)
        assert w.stats(1.0)["rate"] == pytest.approx(2.0)
        # Once mature, the full width is the denominator: the live
        # window [6, 11] holds t = 7..11 (5 observations) over width 5.
        for t in range(2, 12):
            w.observe(float(t), 1.0)
        s = w.stats(11.0)
        assert s["count"] == 5
        assert s["rate"] == pytest.approx(1.0)

    def test_large_clock_jump_recycles_lazily(self):
        # A jump of >> width must cost O(1) and drop all stale slots.
        w = SlidingWindow("x", config=WindowConfig(width=2.0, step=0.5))
        for t in range(4):
            w.observe(t * 0.5, 1.0)
        w.observe(1e6, 7.0)
        s = w.stats(1e6)
        assert s["count"] == 1
        assert s["mean"] == pytest.approx(7.0)

    def test_slot_collision_resets_old_bucket(self):
        # Two timestamps hashing to the same ring slot (ids differing by
        # n_buckets) must not mix their values.
        cfg = WindowConfig(width=2.0, step=1.0)  # 2 slots
        w = SlidingWindow("x", config=cfg)
        w.observe(0.5, 100.0)   # bucket 0 -> slot 0
        w.observe(2.5, 1.0)     # bucket 2 -> slot 0 again
        s = w.stats(3.0)
        assert s["count"] == 1
        assert s["mean"] == pytest.approx(1.0)

    def test_sample_cap_bounds_memory_not_count(self):
        cfg = WindowConfig(width=1.0, step=1.0, sample_cap=8)
        w = SlidingWindow("x", config=cfg)
        for i in range(100):
            w.observe(0.5, float(i))
        s = w.stats(0.9)
        assert s["count"] == 100          # aggregates keep exact count
        assert s["mean"] == pytest.approx(sum(range(100)) / 100)
        # percentiles come from the bounded sample only
        assert s["p99"] <= 7.0

    def test_empty_window_is_all_zeros(self):
        w = SlidingWindow("x")
        assert w.stats(5.0) == {"count": 0, "rate": 0.0, "mean": 0.0,
                                "p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestWindowedMetrics:
    def test_tap_auto_creates_series(self):
        wm = WindowedMetrics(clock=lambda: 1.0)
        wm.record("qcs.compositions", "counter", 1.0)
        wm.record("lookup.hops", "histogram", 4.0)
        assert sorted(wm.snapshot()) == ["lookup.hops", "qcs.compositions"]

    def test_tap_ignores_gauges(self):
        wm = WindowedMetrics(clock=lambda: 1.0)
        wm.record("probe.tables", "gauge", 12.0)
        assert sorted(wm.snapshot()) == []

    def test_track_is_idempotent_and_marks_wall(self):
        wm = WindowedMetrics(clock=lambda: 0.0)
        a = wm.track("serve.window.setup_latency_us", wall=True)
        b = wm.track("serve.window.setup_latency_us", wall=True)
        assert a is b
        assert wm.series("serve.window.setup_latency_us").wall is True

    def test_snapshot_carries_kind_and_wall(self):
        wm = WindowedMetrics(clock=lambda: 1.0)
        wm.track("serve.window.requests", kind="counter")
        wm.observe("serve.window.requests", 1.0, now=0.5)
        snap = wm.snapshot(now=1.0)
        entry = snap["serve.window.requests"]
        assert entry["kind"] == "counter"
        assert entry["wall"] is False
        assert entry["count"] == 1

    def test_registry_tap_mirrors_instruments(self):
        clock_now = [0.0]
        registry = MetricsRegistry()
        wm = WindowedMetrics(clock=lambda: clock_now[0])
        registry.attach_tap(wm.record)
        c = registry.counter("qcs.compositions")
        h = registry.histogram("lookup.hops")
        c.inc()
        clock_now[0] = 1.0
        h.observe(6.0)
        assert wm.series("qcs.compositions").count(1.0) == 1
        assert wm.series("lookup.hops").stats(1.0)["p50"] == pytest.approx(6.0)
        # Detach: the mirror stops, instruments keep counting.
        registry.attach_tap(None)
        c.inc()
        assert c.value == 2
        assert wm.series("qcs.compositions").count(1.0) == 1

    def test_tap_attaches_to_preexisting_instruments(self):
        registry = MetricsRegistry()
        c = registry.counter("qcs.compositions")  # created before the tap
        wm = WindowedMetrics(clock=lambda: 0.5)
        registry.attach_tap(wm.record)
        c.inc(3.0)
        assert wm.series("qcs.compositions").total(0.5) == pytest.approx(3.0)


def _grid_config(seed=7):
    return GridConfig(
        n_peers=150, seed=seed, telemetry=True,
        churn=ChurnConfig(rate_per_min=4.0),
    )


def _drive(grid, minutes=8, per_minute=3):
    agg = grid.make_aggregator("qsa")

    def tick():
        for _ in range(per_minute):
            agg.aggregate(grid.make_request("video-on-demand", duration=4.0))

    for t in range(minutes):
        grid.sim.call_at(float(t), tick)
    grid.sim.run(until=float(minutes) + 8.0)
    grid.churn.stop()
    grid.sim.run()


class TestDifferentialByteIdentity:
    """The tentpole invariant: the windowed layer never perturbs the
    deterministic export path.  Same seed, tap on vs off -> identical
    JSONL bytes."""

    def test_jsonl_identical_with_and_without_tap(self, tmp_path):
        plain = P2PGrid(_grid_config())
        _drive(plain)
        path_plain = tmp_path / "plain.jsonl"
        plain.telemetry.bus.export_jsonl(str(path_plain))

        tapped = P2PGrid(_grid_config())
        wm = WindowedMetrics(clock=lambda: tapped.sim.now)
        tapped.telemetry.metrics.attach_tap(wm.record)
        _drive(tapped)
        path_tapped = tmp_path / "tapped.jsonl"
        tapped.telemetry.bus.export_jsonl(str(path_tapped))

        assert path_plain.read_bytes() == path_tapped.read_bytes()
        assert path_plain.stat().st_size > 0
        # ... and the tap actually saw traffic (the test is not vacuous).
        assert sorted(wm.snapshot())
        assert any(wm.series(n).count(tapped.sim.now, width=1e9)
                   for n in sorted(wm.snapshot()))

"""Windowed instruments: ring-buffer sliding windows over the registry.

The cumulative :class:`~repro.telemetry.metrics.Histogram` keeps only
its first ``reservoir_cap`` observations exactly, so on a long-running
server its percentiles freeze on ancient traffic.  This module fixes the
blind spot *without touching the deterministic export path*: a
:class:`WindowedMetrics` attaches to the registry as a **tap** (see
:meth:`MetricsRegistry.attach_tap`) and mirrors every counter increment
and histogram observation into a ring of time buckets.  Queries then
report *rolling* rate / mean / p50 / p95 / p99 over the last ``width``
clock units only.

Two invariants keep seeded runs byte-identical with the windowed layer
on or off (the differential test in
``tests/telemetry/test_windows.py``):

* the tap never emits bus events, never mutates an instrument, and never
  reads the wall clock unless the *series itself* is declared
  wall-clocked (``wall=True`` -- e.g. serving-side latency feeds);
* bucketing is a pure function of the clock the window was built with
  (the simulator clock by default), so two identical runs fill identical
  buckets.

The unit of ``width``/``step`` is whatever the clock returns -- sim
minutes for the default simulator clock, seconds for a wall clock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = ["WindowConfig", "SlidingWindow", "WindowedMetrics"]


class WindowConfig:
    """Shape of every window one :class:`WindowedMetrics` maintains."""

    __slots__ = ("width", "step", "sample_cap")

    def __init__(
        self, width: float = 5.0, step: float = 0.25, sample_cap: int = 512
    ) -> None:
        if width <= 0 or step <= 0:
            raise ValueError("window width and step must be positive")
        if step > width:
            raise ValueError("window step must not exceed the width")
        if sample_cap < 1:
            raise ValueError("sample_cap must be positive")
        self.width = float(width)
        self.step = float(step)
        self.sample_cap = sample_cap

    @property
    def n_buckets(self) -> int:
        return max(1, round(self.width / self.step))


class _Bucket:
    """One ring slot: aggregates plus a bounded sample for percentiles."""

    __slots__ = ("bucket_id", "count", "total", "samples")

    def __init__(self) -> None:
        self.bucket_id = -1
        self.count = 0
        self.total = 0.0
        self.samples: List[float] = []

    def reset(self, bucket_id: int) -> None:
        self.bucket_id = bucket_id
        self.count = 0
        self.total = 0.0
        self.samples.clear()


class SlidingWindow:
    """A ring of time buckets over one metric series.

    ``observe(now, value)`` files the value under the bucket covering
    ``now``; slots are recycled lazily, so arbitrary clock jumps cost
    O(1).  Queries merge the slots still inside ``[now - width, now]``.
    """

    __slots__ = (
        "name", "kind", "wall", "config", "_buckets", "_first_t",
        "_bucket_cache",
    )

    def __init__(
        self,
        name: str,
        kind: str = "histogram",
        wall: bool = False,
        config: Optional[WindowConfig] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        #: True for series fed from wall-clock measurements; exposition
        #: labels them so deterministic consumers can filter them out.
        self.wall = wall
        self.config = config or WindowConfig()
        self._buckets = [_Bucket() for _ in range(self.config.n_buckets)]
        self._first_t: Optional[float] = None
        #: Last slot the tap resolved (validated by id before reuse).
        self._bucket_cache: Optional[_Bucket] = None

    def _slot(self, now: float) -> _Bucket:
        bucket_id = int(now // self.config.step)
        bucket = self._buckets[bucket_id % len(self._buckets)]
        if bucket.bucket_id != bucket_id:
            bucket.reset(bucket_id)
        return bucket

    def observe(self, now: float, value: float) -> None:
        if self._first_t is None or now < self._first_t:
            self._first_t = now
        bucket = self._slot(now)
        bucket.count += 1
        bucket.total += value
        if self.kind != "counter" and len(bucket.samples) < self.config.sample_cap:
            # Counter windows keep count/total only; percentiles over
            # bare increments carry no signal (see ``record``).
            bucket.samples.append(value)

    def _live(self, now: float, width: Optional[float]) -> List[_Bucket]:
        """Slots whose interval intersects ``[now - width, now]``."""
        span = self.config.width if width is None else min(width, self.config.width)
        newest = int(now // self.config.step)
        oldest = int((now - span) // self.config.step) + 1
        return [
            b for b in self._buckets
            if oldest <= b.bucket_id <= newest and b.count
        ]

    def stats(self, now: float, width: Optional[float] = None) -> Dict[str, float]:
        """Rolling aggregates over the last ``width`` clock units.

        Returns count / rate (per clock unit) / mean / p50 / p95 / p99;
        all zeros when the window is empty.  The rate denominator is the
        effective covered span, so a window younger than ``width`` does
        not under-report.
        """
        span = self.config.width if width is None else min(width, self.config.width)
        live = self._live(now, span)
        count = sum(b.count for b in live)
        if not count:
            return {"count": 0, "rate": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        total = sum(b.total for b in live)
        covered = span
        if self._first_t is not None:
            covered = min(span, max(self.config.step, now - self._first_t))
        samples: List[float] = []
        for b in live:
            samples.extend(b.samples)
        samples.sort()

        def pct(q: float) -> float:
            if not samples:  # counter windows keep no percentile samples
                return 0.0
            rank = min(len(samples) - 1,
                       max(0, round(q / 100 * (len(samples) - 1))))
            return samples[rank]

        return {
            "count": count,
            "rate": count / covered,
            "mean": total / count,
            "p50": pct(50),
            "p95": pct(95),
            "p99": pct(99),
        }

    def count(self, now: float, width: Optional[float] = None) -> int:
        return sum(b.count for b in self._live(now, width))

    def rate(
        self, now: float, width: Optional[float] = None,
        count: Optional[int] = None,
    ) -> float:
        """Observations per clock unit, without touching the samples.

        Same covered-span denominator as :meth:`stats`, but skips the
        percentile merge/sort -- the SLO engine's per-step ``rate``
        measurements stay O(buckets).  A caller that already holds
        :meth:`count` for the same ``now``/``width`` passes it in.
        """
        span = self.config.width if width is None else min(width, self.config.width)
        if count is None:
            count = sum(b.count for b in self._live(now, span))
        if not count:
            return 0.0
        covered = span
        if self._first_t is not None:
            covered = min(span, max(self.config.step, now - self._first_t))
        return count / covered

    def total(self, now: float, width: Optional[float] = None) -> float:
        return sum(b.total for b in self._live(now, width))


class WindowedMetrics:
    """Every catalogued counter/histogram, windowed, behind one clock.

    Registry-fed series appear automatically through :meth:`record` (the
    tap); derived series (request/denial tallies, wall latencies) are
    declared up front with :meth:`track` so their names are part of the
    telemetry catalog contract (tests/analysis/test_invariants.py
    matches literal ``track`` sites and the catalog both ways).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        config: Optional[WindowConfig] = None,
    ) -> None:
        self.clock = clock
        self.config = config or WindowConfig()
        self._series: Dict[str, SlidingWindow] = {}
        #: Cumulative counter values at the last ``sample_counters``.
        self._counter_last: Dict[str, float] = {}

    # -- series management ---------------------------------------------------
    def track(
        self, name: str, kind: str = "histogram", wall: bool = False
    ) -> SlidingWindow:
        """Declare a derived series (idempotent; returns the window)."""
        window = self._series.get(name)
        if window is None:
            window = self._series[name] = SlidingWindow(
                name, kind=kind, wall=wall, config=self.config
            )
        return window

    def series(self, name: str) -> Optional[SlidingWindow]:
        return self._series.get(name)

    # -- feeds ---------------------------------------------------------------
    def record(self, name: str, kind: str, value: float) -> None:
        """The registry tap: mirror one instrument update (sim clock).

        This runs on every counter increment and histogram observation
        in the grid (~dozens per serving request), so the bucket-filing
        logic of :meth:`SlidingWindow.observe` is inlined here (what the
        plane costs per request: docs/observability.md, "What the plane
        costs").
        """
        if kind == "gauge":
            return  # gauges are last-write-wins; a window adds nothing
        window = self._series.get(name)
        if window is None:
            window = self._series[name] = SlidingWindow(
                name, kind=kind, config=self.config
            )
        now = self.clock()
        if window._first_t is None or now < window._first_t:
            window._first_t = now
        config = self.config
        bucket_id = int(now // config.step)
        bucket = window._bucket_cache
        if bucket is None or bucket.bucket_id != bucket_id:
            buckets = window._buckets
            bucket = buckets[bucket_id % len(buckets)]
            if bucket.bucket_id != bucket_id:
                bucket.reset(bucket_id)
            window._bucket_cache = bucket
        bucket.count += 1
        bucket.total += value
        if kind != "counter":
            # Counter windows carry count/total only: a percentile over
            # bare increments says nothing, and skipping the sample
            # append keeps the hot tap path lean.
            samples = bucket.samples
            if len(samples) < config.sample_cap:
                samples.append(value)

    def observe(self, name: str, value: float, now: Optional[float] = None) -> None:
        """Feed one declared (tracked) series directly."""
        window = self._series[name]
        window.observe(self.clock() if now is None else now, value)

    def sample_counters(
        self, values: Dict[str, float], now: Optional[float] = None
    ) -> None:
        """Delta-sample cumulative counter values into counter windows.

        The cheap complement of the per-observation tap: a counter's
        rolling rate needs only how much its cumulative value grew,
        so instead of mirroring every increment (the hottest instrument
        path -- dozens per serving request), the caller hands the
        current values once per window step and each counter's increase
        since the previous sample lands in the bucket covering ``now``.
        The first sample of a name is a baseline only (pre-attach
        totals never pollute the window).  ``count`` accrues the summed
        integer increase, ``total`` the exact one; sub-step timing
        inside a bucket is not preserved, which the bucketed window
        never resolved anyway.
        """
        t = self.clock() if now is None else now
        last = self._counter_last
        for name, value in values.items():
            prev = last.get(name)
            last[name] = value
            if prev is None or value <= prev:
                continue
            delta = value - prev
            window = self._series.get(name)
            if window is None:
                window = self._series[name] = SlidingWindow(
                    name, kind="counter", config=self.config
                )
            if window._first_t is None or t < window._first_t:
                window._first_t = t
            bucket = window._slot(t)
            bucket.count += int(delta) or 1
            bucket.total += delta

    # -- queries -------------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """``name -> {kind, wall, count, rate, mean, p50, p95, p99}``."""
        t = self.clock() if now is None else now
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._series):
            window = self._series[name]
            stats = window.stats(t)
            stats["kind"] = window.kind
            stats["wall"] = window.wall
            out[name] = stats
        return out

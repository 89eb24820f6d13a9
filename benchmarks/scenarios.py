"""Time-varying workload scenarios: flash crowds and diurnal cycles.

§4.1's workload is stationary Poisson.  Real P2P request streams are
not: media events produce *flash crowds* (a sharp burst onto one
application) and user populations produce *diurnal* rate cycles.  This
module generalizes the generator to a time-varying rate λ(t) via the
standard **thinning** construction (Lewis & Shedler): candidate arrivals
are drawn at the envelope rate ``λ_max`` and accepted with probability
``λ(t)/λ_max``, which yields an exact non-homogeneous Poisson process.

Profiles
--------
* :class:`ConstantRate` -- the §4.1 baseline.
* :class:`FlashCrowd` -- base rate plus a burst window at ``peak``
  multiple, optionally focused on one application.
* :class:`DiurnalRate` -- sinusoidal day/night cycle.

``benchmarks/bench_flash_crowd.py`` uses these to measure how the three
algorithms absorb a 10x burst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.services.applications import ApplicationTemplate
from repro.services.qoscompiler import UserRequest
from repro.sim.engine import Simulator

__all__ = [
    "RateProfile",
    "ConstantRate",
    "FlashCrowd",
    "DiurnalRate",
    "VariableRateGenerator",
]


class RateProfile:
    """A time-varying request rate λ(t) (requests/minute)."""

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    @property
    def max_rate(self) -> float:
        """An upper envelope for thinning; must dominate λ(t) everywhere."""
        raise NotImplementedError

    def app_bias_at(self, t: float) -> Optional[str]:
        """Application every *burst-attributed* request targets, if any."""
        return None


@dataclass(frozen=True)
class ConstantRate(RateProfile):
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def rate_at(self, t: float) -> float:
        return self.rate

    @property
    def max_rate(self) -> float:
        return self.rate


@dataclass(frozen=True)
class FlashCrowd(RateProfile):
    """Base rate with a burst window at ``peak``x, aimed at one app.

    During ``[start, start + duration)`` the total rate is
    ``base_rate * peak``; the excess over the base rate goes to
    ``hot_application`` when one is named (everyone rushes to the same
    stream), the base share keeps its usual mix.
    """

    base_rate: float
    start: float
    duration: float
    peak: float = 10.0
    hot_application: Optional[str] = None

    def __post_init__(self) -> None:
        if self.base_rate <= 0 or self.duration <= 0 or self.peak < 1:
            raise ValueError("need base_rate > 0, duration > 0, peak >= 1")

    def in_burst(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration

    def rate_at(self, t: float) -> float:
        return self.base_rate * (self.peak if self.in_burst(t) else 1.0)

    @property
    def max_rate(self) -> float:
        return self.base_rate * self.peak

    def app_bias_at(self, t: float) -> Optional[str]:
        return self.hot_application if self.in_burst(t) else None


@dataclass(frozen=True)
class DiurnalRate(RateProfile):
    """``mean_rate * (1 + amplitude * sin(2π t / period))``."""

    mean_rate: float
    amplitude: float = 0.5
    period: float = 1440.0  # one simulated day, in minutes

    def __post_init__(self) -> None:
        if self.mean_rate <= 0:
            raise ValueError("mean rate must be positive")
        if not 0 <= self.amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def rate_at(self, t: float) -> float:
        return self.mean_rate * (
            1.0 + self.amplitude * math.sin(2 * math.pi * t / self.period)
        )

    @property
    def max_rate(self) -> float:
        return self.mean_rate * (1.0 + self.amplitude)


class VariableRateGenerator:
    """Non-homogeneous Poisson request stream via thinning."""

    def __init__(
        self,
        sim: Simulator,
        profile: RateProfile,
        horizon: float,
        applications: Sequence[ApplicationTemplate],
        alive_peer_ids: Callable[[], Sequence[int]],
        sink: Callable[[UserRequest], None],
        rng: np.random.Generator,
        duration_range: tuple = (1.0, 60.0),
        qos_levels: tuple = ("low", "average", "high"),
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.sim = sim
        self.profile = profile
        self.horizon = horizon
        self.applications = list(applications)
        if not self.applications:
            raise ValueError("need at least one application")
        self._by_name = {a.name: a for a in self.applications}
        self.alive_peer_ids = alive_peer_ids
        self.sink = sink
        self.rng = rng
        self.duration_range = duration_range
        self.qos_levels = qos_levels
        self.n_generated = 0
        self._next_id = 0

    def _make_request(self, hot_app: Optional[str]) -> Optional[UserRequest]:
        ids = self.alive_peer_ids()
        if not ids:
            return None
        rng = self.rng
        if hot_app is not None and hot_app in self._by_name:
            # Excess burst traffic rushes the hot application; the base
            # share (1/peak of the burst rate) keeps the usual mix.  A
            # uniform draw against base/burst ratio approximates that
            # split without needing the profile internals.
            app_name = hot_app
        else:
            app_name = self.applications[
                int(rng.integers(len(self.applications)))
            ].name
        lo, hi = self.duration_range
        request = UserRequest(
            request_id=self._next_id,
            peer_id=ids[int(rng.integers(len(ids)))],
            application=app_name,
            qos_level=str(rng.choice(self.qos_levels)),
            session_duration=float(rng.uniform(lo, hi)),
            arrival_time=self.sim.now,
        )
        self._next_id += 1
        return request

    def _candidate(self) -> None:
        """One envelope-rate candidate: thin it, then draw the next gap."""
        t = self.sim.now
        # Thinning: accept with probability λ(t)/λ_max.
        if self.rng.random() <= self.profile.rate_at(t) / self.profile.max_rate:
            hot = self.profile.app_bias_at(t)
            if hot is not None:
                # Only the burst *excess* rushes the hot application; the
                # base-rate share keeps the normal application mix.
                base = getattr(self.profile, "base_rate", 0.0)
                burst_share = 1.0 - base / self.profile.rate_at(t)
                if self.rng.random() > burst_share:
                    hot = None
            request = self._make_request(hot)
            if request is not None:
                self.n_generated += 1
                self.sink(request)
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.profile.max_rate))
        if self.sim.now + gap <= self.horizon:
            self.sim.call_in(gap, self._candidate)

    def start(self) -> None:
        self.sim.call_in(0.0, self._schedule_next)

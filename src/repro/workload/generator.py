"""The request stream: Poisson arrivals over random peers (§4.1).

"During each minute, certain number of user requests are generated and
assigned on a set of randomly chosen peers.  The user request is
represented by any of the 10 distributed applications whose service path
lengths are between 2 to 5 and whose session durations are between 1 to
60 minutes.  The user's QoS requirement is specified by a single
parameter which has three levels: high, average, and low."

:class:`RequestGenerator` renders that as a Poisson process with
exponential inter-arrival times at ``rate`` requests/minute; every
arrival draws a requesting peer, an application, a QoS level and a
session duration and hands the request to a sink callable (usually
``aggregator.aggregate`` wrapped by the metrics collector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.services.applications import ApplicationTemplate
from repro.services.qoscompiler import UserRequest
from repro.sim.engine import Simulator

__all__ = ["WorkloadConfig", "RequestGenerator"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload parameters; defaults mirror §4.1."""

    #: Request arrival rate, requests per minute.
    rate_per_min: float = 100.0
    #: Generation stops at this simulated minute (sessions may run on).
    horizon: float = 60.0
    #: Session duration range, minutes (uniform).
    duration_range: tuple = (1.0, 60.0)
    #: QoS levels drawn uniformly.
    qos_levels: tuple = ("low", "average", "high")

    def __post_init__(self) -> None:
        if self.rate_per_min <= 0:
            raise ValueError("request rate must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        lo, hi = self.duration_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad duration range ({lo}, {hi})")


class RequestGenerator:
    """Drives the request stream into a sink."""

    def __init__(
        self,
        sim: Simulator,
        config: WorkloadConfig,
        applications: Sequence[ApplicationTemplate],
        alive_peer_ids: Callable[[], Sequence[int]],
        sink: Callable[[UserRequest], None],
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.config = config
        self.applications = list(applications)
        if not self.applications:
            raise ValueError("need at least one application template")
        self.alive_peer_ids = alive_peer_ids
        self.sink = sink
        self.rng = rng
        self.n_generated = 0
        self._next_id = 0

    def make_request(self) -> Optional[UserRequest]:
        """One §4.1 request at the current time; None if no peer is alive."""
        ids = self.alive_peer_ids()
        if not ids:
            return None
        rng = self.rng
        app = self.applications[int(rng.integers(len(self.applications)))]
        lo, hi = self.config.duration_range
        levels = self.config.qos_levels
        request = UserRequest(
            request_id=self._next_id,
            peer_id=ids[int(rng.integers(len(ids)))],
            application=app.name,
            # rng.choice(levels) draws this same index, at several times
            # the cost (tests/workload/test_generator.py pins the two).
            qos_level=levels[int(rng.integers(len(levels)))],
            session_duration=float(rng.uniform(lo, hi)),
            arrival_time=self.sim.now,
        )
        self._next_id += 1
        return request

    def _arrive(self) -> None:
        """One arrival: hand a request to the sink, then draw the next gap."""
        request = self.make_request()
        if request is not None:
            self.n_generated += 1
            self.sink(request)
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.config.rate_per_min))
        if self.sim.now + gap <= self.config.horizon:
            self.sim.call_in(gap, self._arrive)

    def start(self) -> None:
        """Begin the stream at the current time (first gap drawn then)."""
        self.sim.call_in(0.0, self._schedule_next)

"""Topological variation: arbitrary peer arrivals and departures (§4.2).

The paper measures churn as "the number of peers leaving or arriving
every minute".  :class:`ChurnProcess` realizes that: every minute it
draws ``Poisson(rate)`` membership events, each independently an arrival
or a departure with equal probability, so the expected population is
stationary while individual peers come and go.

**Departure selection is biased towards young peers**: a peer's chance of
being the one to leave is proportional to ``1 / (1 + uptime)``.  This is
the discrete analogue of the heavy-tailed session-time distributions
measured for real P2P systems (Saroiu et al. [17], which the paper builds
its uptime heuristic on): peers that have already stayed long tend to
stay longer.  Without this property the paper's uptime-based selection
rule could not help at all -- uptime would carry no information -- so the
bias is part of reproducing the experiment faithfully (see DESIGN.md §4).
The bias strength is configurable (``departure_bias = 0`` gives uniform
departures, the ablation benches use this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.network.peer import Peer
from repro.network.soa import SoAPeerDirectory
from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = ["ChurnConfig", "ChurnProcess"]


@dataclass(frozen=True)
class ChurnConfig:
    """Churn parameters.

    Attributes
    ----------
    rate_per_min:
        Expected membership events (arrivals + departures) per minute;
        the paper's "topological variation rate (peers/min)".
    departure_bias:
        Exponent ``gamma`` in the departure weight ``(1 + uptime)^-gamma``.
        ``1.0`` (default) gives the heavy-tail-flavoured behaviour;
        ``0.0`` makes departures uniform.
    min_alive:
        Departures are suppressed when the population would drop below
        this floor (keeps degenerate configs from emptying the grid).
    """

    rate_per_min: float
    departure_bias: float = 1.0
    min_alive: int = 2

    def __post_init__(self) -> None:
        if self.rate_per_min < 0:
            raise ValueError("churn rate must be non-negative")
        if self.departure_bias < 0:
            raise ValueError("departure bias must be non-negative")


class ChurnProcess:
    """Drives membership events; delegates bookkeeping to callbacks.

    Parameters
    ----------
    sim, directory:
        The simulation kernel and the peer population.
    config:
        Churn parameters.
    spawn_peer:
        Called to create an arriving peer (returns the new
        :class:`Peer`); typically provisions resources, catalog replicas
        and lookup-ring membership.
    on_departure:
        Called with the departing peer id *before* the directory marks it
        departed, so session/registry state can be cleaned up.
    rng:
        Dedicated RNG stream.
    """

    def __init__(
        self,
        sim: Simulator,
        directory: SoAPeerDirectory,
        config: ChurnConfig,
        spawn_peer: Callable[[float], Peer],
        on_departure: Callable[[int], None],
        rng: np.random.Generator,
        telemetry=None,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.config = config
        self.spawn_peer = spawn_peer
        self.on_departure = on_departure
        self.rng = rng
        #: Optional :class:`repro.telemetry.Telemetry` (join/leave events).
        self.telemetry = telemetry
        self.n_arrivals = 0
        self.n_departures = 0
        self._process: Optional[Process] = None

    # -- single events ------------------------------------------------------
    def arrive(self) -> Peer:
        peer = self.spawn_peer(self.sim.now)
        self.n_arrivals += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter("churn.arrivals").inc()
            self.telemetry.bus.emit("churn.join", peer=peer.peer_id)
            self._update_store_gauges()
        return peer

    def pick_departing_peer(self) -> Optional[int]:
        """Weighted draw over alive peers; ``None`` if at the floor."""
        ids = self.directory.alive_ids
        if len(ids) <= self.config.min_alive:
            return None
        uptimes, ids = self.directory.uptimes(self.sim.now)
        if self.config.departure_bias == 0.0:
            idx = int(self.rng.integers(len(ids)))
        else:
            # Scalar-draw spelling of rng.choice(len(ids), p=weights): the
            # same single random() over the same cdf, minus choice's
            # per-call validation of p.
            weights = (1.0 + uptimes) ** (-self.config.departure_bias)
            weights /= weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(self.rng.random(), side="right"))
        return ids[idx]

    def depart(self) -> Optional[int]:
        pid = self.pick_departing_peer()
        if pid is None:
            return None
        if self.telemetry is not None:
            self.telemetry.metrics.counter("churn.departures").inc()
            self.telemetry.bus.emit("churn.leave", peer=pid)
        self.on_departure(pid)
        self.directory.depart(pid, self.sim.now)
        self.n_departures += 1
        if self.telemetry is not None:
            self._update_store_gauges()
        return pid

    def _update_store_gauges(self) -> None:
        """Mirror the peer store's membership bookkeeping into gauges."""
        store = self.directory.store
        metrics = self.telemetry.metrics
        metrics.gauge("store.generation").set(store.generation)
        metrics.gauge("store.rows_recycled").set(store.rows_recycled)

    # -- the per-minute process -------------------------------------------------
    def _run(self) -> Iterator:
        while True:
            yield self.sim.timeout(1.0)
            n_events = int(self.rng.poisson(self.config.rate_per_min))
            for _ in range(n_events):
                if self.rng.random() < 0.5:
                    self.arrive()
                else:
                    self.depart()

    def start(self) -> Process:
        """Start the churn loop (no-op process when the rate is zero)."""
        if self.config.rate_per_min == 0:
            def idle():
                return
                yield  # pragma: no cover

            self._process = Process(self.sim, idle(), name="churn-idle")
        else:
            self._process = Process(self.sim, self._run(), name="churn")
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")

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

One departure draw per membership event
---------------------------------------
The draw is defined by its float arithmetic: with ``w = (1 + uptime) **
-bias`` over the alive peers in id order, ``p = w / w.sum()``, ``c =
p.cumsum() / p.cumsum()[-1]`` and one ``u = rng.random()``, the peer at
``c.searchsorted(u, side="right")`` leaves -- ``rng.choice(n, p=p)``
without its validation.  That costs three O(N) passes per departure.

Every event of one churn minute runs at one ``sim.now``, so no uptime
moves between them; only membership does.  :class:`ChurnProcess` builds
one *unnormalised* prefix table ``P = w.cumsum()`` per ``(sim.now,
directory.generation)`` and then edits it for its own events only: a
departure records its table position and weight ``P[j] - P[j-1]`` (a
sorted list of at most one minute's departures), an arrival appends its
weight, computed by the same expression.  A pick scales the same single
``u`` by the remaining total ``x = u * (P[-1] - removed)`` and finds the
first position whose prefix, less the removed weights at or before it,
exceeds ``x``: one ``searchsorted`` per removed weight it steps past,
so O(log N + k) for ``k`` departures so far this minute.

**Exactness.**  Both computations approximate the same real CDF.  The
reference one is within about ``(N + 2) * eps`` of it (the sum cancels
in the final division; each cumulative sum adds ``N`` roundings), and
the table one within about ``(N + 2k + 3) * eps`` of the *largest
magnitude it touched* -- the table total including the removed weights,
not the remaining total, so that subtracting removed weights cannot
hide an error.  When ``x`` lies further than the sum of the two bounds
(taken twice over, plus a few ulps for ``pow`` itself) from both edges
of the interval it found, the reference computation must land in the
same interval, and the table's answer is returned.  Otherwise -- a
near-tie, an empty interval, or a draw on a boundary -- the pick falls
back to the reference computation *on the same draw*, so the result is
the reference's in every case.  Any membership change this process did
not make itself moves ``directory.generation`` past what its own event
accounts for, and that drops the table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.network.soa import SoAPeerDirectory
from repro.sim.engine import Simulator

__all__ = ["ChurnConfig", "ChurnProcess"]

_EPS = float(np.finfo(np.float64).eps)
#: Spare prefix-table slots for one minute's arrivals (grown if short).
_HEADROOM = 64


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
        Called to create an arriving peer (returns the new peer's id);
        typically provisions resources, catalog replicas and lookup-ring
        membership.
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
        spawn_peer: Callable[[float], int],
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
        #: Picks the prefix table could not decide (reference path).
        self.n_exact_fallbacks = 0
        self._stopped = False
        # The departure prefix table: valid at ``_key == (now, generation)``.
        self._key: Optional[tuple] = None
        self._prefix = np.empty(0)
        self._size = 0
        self._removed: List[int] = []  # table positions departed, ascending
        self._lost: List[float] = []   # their weights, aligned
        self._picked = -1              # table position of the last pick

    # -- single events ------------------------------------------------------
    def arrive(self) -> int:
        generation = self.directory.generation
        pid = self.spawn_peer(self.sim.now)
        if self._advance(generation):
            self._append(pid)
        self.n_arrivals += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter("churn.arrivals").inc()
            self.telemetry.bus.emit("churn.join", peer=pid)
            self._update_store_gauges()
        return pid

    def pick_departing_peer(self) -> Optional[int]:
        """Weighted draw over alive peers; ``None`` if at the floor."""
        ids = self.directory.alive_ids
        if len(ids) <= self.config.min_alive:
            return None
        if self.config.departure_bias == 0.0:
            idx = int(self.rng.integers(len(ids)))
            return ids[idx]
        draw = self.rng.random()
        pid = self._table_pick(draw)
        if pid is None:
            # The reference computation, on the same draw.  Scalar-draw
            # spelling of rng.choice(len(ids), p=weights): the same cdf,
            # minus choice's per-call validation of p.
            self.n_exact_fallbacks += 1
            uptimes, ids = self.directory.uptimes(self.sim.now)
            weights = (1.0 + uptimes) ** (-self.config.departure_bias)
            weights /= weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(draw, side="right"))
            pid = ids[idx]
            self._picked = self._position(idx)
        return pid

    def depart(self) -> Optional[int]:
        pid = self.pick_departing_peer()
        if pid is None:
            return None
        position = self._picked
        generation = self.directory.generation
        if self.telemetry is not None:
            self.telemetry.metrics.counter("churn.departures").inc()
            self.telemetry.bus.emit("churn.leave", peer=pid)
        self.on_departure(pid)
        self.directory.depart(pid, self.sim.now)
        if self._advance(generation):
            prefix = self._prefix
            below = float(prefix[position - 1]) if position else 0.0
            i = bisect_right(self._removed, position)
            self._removed.insert(i, position)
            self._lost.insert(i, float(prefix[position]) - below)
        self.n_departures += 1
        if self.telemetry is not None:
            self._update_store_gauges()
        return pid

    # -- the departure prefix table ------------------------------------------
    def _build(self, now: float) -> None:
        """Weights of the alive sequence at ``now``, as one prefix table."""
        # (1 + uptime) ** -bias, in place in the fresh uptimes array: the
        # same bits as the expression, without two more N-sized arrays.
        weights, _ = self.directory.uptimes(now)
        weights += 1.0
        weights **= -self.config.departure_bias
        n = len(weights)
        if len(self._prefix) <= n:  # else the last minute's buffer serves
            self._prefix = np.empty(n + _HEADROOM)
        np.cumsum(weights, out=self._prefix[:n])
        self._size = n
        self._removed = []
        self._lost = []
        self._key = (now, self.directory.generation)

    def _advance(self, generation: int) -> bool:
        """After one of this process's own events, begun at ``generation``:
        keep the table only if that event was the one membership change."""
        now, current = self.sim.now, self.directory.generation
        if self._key == (now, generation) and current == generation + 1:
            self._key = (now, current)
            return True
        self._key = None
        return False

    def _append(self, pid: int) -> None:
        """An arrival's weight, at the end of the id-ordered table."""
        directory = self.directory
        if directory.alive_ids[-1] != pid:
            self._key = None  # not the largest id: not an append
            return
        joined_at = directory.store.joined_at.item(directory.row_of(pid))
        uptime = np.array([self.sim.now - joined_at])
        weight = (1.0 + uptime) ** (-self.config.departure_bias)
        size = self._size
        if size == len(self._prefix):
            self._prefix = np.concatenate([self._prefix, np.empty(_HEADROOM)])
        self._prefix[size] = self._prefix[size - 1] + weight[0]
        self._size = size + 1

    def _table_pick(self, draw: float) -> Optional[int]:
        """The draw ``draw`` decided on the prefix table; ``None`` when it
        lies within the error margin of an edge of its interval."""
        now = self.sim.now
        if self._key != (now, self.directory.generation):
            self._build(now)
        removed, lost, size = self._removed, self._lost, self._size
        prefix = self._prefix[:size]
        top, gone = float(prefix[-1]), sum(lost)
        x = draw * (top - gone)
        # The first position whose prefix, less the removed weights at
        # or before it, exceeds x: each pass steps past removed positions.
        shift, count = 0.0, 0
        while True:
            j = int(prefix.searchsorted(x + shift, side="right"))
            seen = bisect_right(removed, j)
            if seen == count:
                break
            count = seen
            shift = sum(lost[:count])
        if j >= size or (count and removed[count - 1] == j):
            return None
        margin = 4.0 * (size + len(removed) + 4) * _EPS * (top + gone)
        low = (float(prefix[j - 1]) if j else 0.0) - shift
        high = float(prefix[j]) - shift
        if not (x - low > margin and high - x > margin):  # NaN: fall back
            return None
        self._picked = j
        return self.directory.alive_ids[j - count]

    def _position(self, idx: int) -> int:
        """Table position of the alive peer at index ``idx``."""
        position = idx
        for removed in self._removed:
            if removed > position:
                break
            position += 1
        return position

    def _update_store_gauges(self) -> None:
        """Mirror the peer store's membership bookkeeping into gauges."""
        store = self.directory.store
        metrics = self.telemetry.metrics
        metrics.gauge("store.generation").set(store.generation)
        metrics.gauge("store.rows_recycled").set(store.rows_recycled)

    # -- the per-minute tick ----------------------------------------------------
    def _tick(self) -> None:
        """One minute's Poisson batch of joins and leaves, then the next tick."""
        if self._stopped:
            return
        n_events = int(self.rng.poisson(self.config.rate_per_min))
        for _ in range(n_events):
            if self.rng.random() < 0.5:
                self.arrive()
            else:
                self.depart()
        self.sim.call_in(1.0, self._tick)

    def start(self) -> None:
        """Start the minute tick (schedules nothing when the rate is zero)."""
        if self.config.rate_per_min > 0:
            # Arm the first tick from the current instant, one minute on.
            self.sim.call_in(0.0, self.sim.call_in, 1.0, self._tick)

    def stop(self) -> None:
        """The pending tick fires and does nothing; no further tick follows."""
        self._stopped = True

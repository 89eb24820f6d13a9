"""The SLO engine: declared objectives evaluated as multi-window burn rates.

An :class:`Objective` states what "healthy" means for one windowed
series -- a floor (ψ must stay above 0.85) or a ceiling (denial rate
must stay below 0.25) -- and the :class:`SloEngine` turns the windowed
measurements into one of three states per objective:

``ok``
    Both evaluation windows are inside the objective.
``warn``
    The error budget is burning: the short window already violates the
    objective, or the long window has consumed more than
    ``warn_fraction`` of the budget.
``breach``
    Both the short *and* the long window violate the objective -- the
    classic multi-window burn-rate page condition (fast burn confirmed
    by sustained burn, so a single bad step cannot page).

State *transitions* are emitted as catalogued ``slo.state`` events on
the bus; steady states stay silent, so a healthy server adds nothing to
the stream.  Everything is driven by the window clock (sim time on the
serving plane), which keeps evaluation timing -- and therefore the
emitted transitions -- a pure function of the request trace.

The **burn rate** reported per window is the fraction of the error
budget consumed, normalized so 1.0 means "exactly at the objective":

* ``floor`` objectives (ψ): ``burn = (1 - value) / (1 - target)``;
* ``ceiling`` objectives (denial rate, latency p95): ``burn = value /
  target``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.bus import EventBus
from repro.telemetry.windows import WindowedMetrics

__all__ = ["Objective", "SloStatus", "SloEngine", "default_serving_objectives"]

#: Ordered severity; transitions are reported against this scale.
STATES = ("ok", "warn", "breach")


@dataclass(frozen=True)
class Objective:
    """One declared service-level objective over a windowed series."""

    #: Catalogued SLO name (``SLO_CATALOG`` in the telemetry catalog).
    name: str
    description: str
    #: ``"floor"`` (value must stay >= target) or ``"ceiling"`` (<=).
    kind: str
    target: float
    #: Windowed series the measurement reads (numerator for ratios).
    series: str
    #: ``"ratio"`` (count/denominator count), ``"rate"`` (count per
    #: clock unit) or a percentile (``"p50"``/``"p95"``/``"p99"``).
    stat: str
    #: Denominator series for ``stat="ratio"``.
    denominator: Optional[str] = None
    #: Fraction of the budget burned on the long window that arms warn.
    warn_fraction: float = 0.5
    #: With fewer than this many numerator observations in the long
    #: window the objective reports ``ok`` (no signal, no alarm).
    min_count: int = 5

    def __post_init__(self) -> None:
        if self.kind not in ("floor", "ceiling"):
            raise ValueError(f"objective kind must be floor/ceiling, got {self.kind!r}")
        if self.stat not in ("ratio", "rate", "p50", "p95", "p99"):
            raise ValueError(f"unknown objective stat {self.stat!r}")
        if self.stat == "ratio" and self.denominator is None:
            raise ValueError("ratio objectives need a denominator series")
        if self.kind == "floor" and not 0.0 <= self.target < 1.0 and self.stat == "ratio":
            raise ValueError("ratio floor target must be in [0, 1)")

    def burn(self, value: float) -> float:
        """Budget consumed by ``value``, normalized to 1.0 at the target."""
        if self.kind == "floor":
            budget = max(1e-12, 1.0 - self.target)
            return max(0.0, 1.0 - value) / budget
        return value / max(1e-12, self.target)


@dataclass
class SloStatus:
    """The engine's latest verdict on one objective."""

    objective: Objective
    state: str = "ok"
    value_long: float = 0.0
    value_short: float = 0.0
    burn_long: float = 0.0
    burn_short: float = 0.0
    count_long: int = 0
    #: Clock time of the last state *transition* (None = never left ok).
    since: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.objective.name,
            "description": self.objective.description,
            "kind": self.objective.kind,
            "stat": self.objective.stat,
            "series": self.objective.series,
            "target": self.objective.target,
            "state": self.state,
            "value_long": self.value_long,
            "value_short": self.value_short,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "count_long": self.count_long,
            "since": self.since,
        }


def default_serving_objectives() -> Tuple[Objective, ...]:
    """The serving plane's stock objectives.

    Every name here must exist in ``SLO_CATALOG``
    (:mod:`repro.telemetry.catalog`); tests/analysis/test_invariants.py
    holds the two in sync.
    """
    return (
        Objective(
            name="slo.psi",
            description="rolling aggregation grade ψ (admitted/requests)",
            kind="floor",
            target=0.85,
            series="serve.window.admits",
            stat="ratio",
            denominator="serve.window.requests",
        ),
        Objective(
            name="slo.setup_latency_p95",
            description="rolling p95 serve-side setup latency, wall µs",
            kind="ceiling",
            target=50_000.0,
            series="serve.window.setup_latency_us",
            stat="p95",
        ),
        Objective(
            name="slo.denial_rate",
            description="rolling denied-compose fraction",
            kind="ceiling",
            target=0.25,
            series="serve.window.denials",
            stat="ratio",
            denominator="serve.window.requests",
        ),
        Objective(
            name="slo.fault_rate",
            description="rolling injected-fault rate per clock unit",
            kind="ceiling",
            target=2.0,
            series="serve.window.faults",
            stat="rate",
        ),
    )


class SloEngine:
    """Evaluates objectives over a :class:`WindowedMetrics` pair of windows."""

    def __init__(
        self,
        windows: WindowedMetrics,
        objectives: Tuple[Objective, ...],
        bus: Optional[EventBus] = None,
        short_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < short_fraction <= 1.0:
            raise ValueError("short_fraction must be in (0, 1]")
        self.windows = windows
        self.objectives = tuple(objectives)
        self.bus = bus
        self.long_width = windows.config.width
        self.short_width = max(windows.config.step, self.long_width * short_fraction)
        self._statuses: Dict[str, SloStatus] = {
            o.name: SloStatus(o) for o in self.objectives
        }
        self._last_eval: Optional[float] = None
        self.n_evaluations = 0
        self.n_transitions = 0

    # -- measurement ---------------------------------------------------------
    def _count(
        self, name: str, now: float, width: float, counts: Dict[Tuple[str, float], int]
    ) -> int:
        """``name``'s count over ``width``, measured once per evaluation."""
        key = (name, width)
        count = counts.get(key)
        if count is None:
            window = self.windows.series(name)
            count = counts[key] = window.count(now, width) if window else 0
        return count

    def _measure(
        self,
        obj: Objective,
        now: float,
        width: float,
        counts: Dict[Tuple[str, float], int],
    ) -> Tuple[float, int]:
        window = self.windows.series(obj.series)
        if window is None:
            return 0.0, 0
        if obj.stat == "ratio":
            assert obj.denominator is not None
            denom = self._count(obj.denominator, now, width, counts)
            if denom == 0:
                return (1.0 if obj.kind == "floor" else 0.0), 0
            return self._count(obj.series, now, width, counts) / denom, denom
        if obj.stat == "rate":
            count = self._count(obj.series, now, width, counts)
            return window.rate(now, width, count), count
        # One merge of the window's samples gives the count with the
        # percentile.
        stats = window.stats(now, width)
        return stats[obj.stat], stats["count"]

    def _classify(self, obj: Objective, burn_long: float, burn_short: float,
                  count_long: int) -> str:
        if count_long < obj.min_count:
            return "ok"
        if burn_long >= 1.0 and burn_short >= 1.0:
            return "breach"
        if burn_short >= 1.0 or burn_long >= obj.warn_fraction:
            return "warn"
        return "ok"

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, now: float) -> List[SloStatus]:
        """Re-measure every objective; emit ``slo.state`` on transitions."""
        self._last_eval = now
        self.n_evaluations += 1
        out: List[SloStatus] = []
        # Objectives share series (both ratios divide by the request
        # count), so each (series, width) count is taken once per step.
        counts: Dict[Tuple[str, float], int] = {}
        for obj in self.objectives:
            status = self._statuses[obj.name]
            value_long, count_long = self._measure(
                obj, now, self.long_width, counts
            )
            value_short, _ = self._measure(obj, now, self.short_width, counts)
            burn_long = obj.burn(value_long)
            burn_short = obj.burn(value_short)
            new_state = self._classify(obj, burn_long, burn_short, count_long)
            if new_state != status.state:
                self.n_transitions += 1
                status.since = now
                # Objectives over wall-fed series stay out of the event
                # stream: their transitions depend on wall-clock
                # measurements, and wall time must never reach the bus
                # (seeded exports are byte-deterministic).  They remain
                # fully visible through statuses()/as_dict().
                window = self.windows.series(obj.series)
                wall_fed = window.wall if window is not None else False
                if self.bus is not None and not wall_fed:
                    self.bus.emit(
                        "slo.state",
                        slo=obj.name,
                        state=new_state,
                        previous=status.state,
                        value=value_long,
                        burn=burn_long,
                        target=obj.target,
                    )
            status.state = new_state
            status.value_long = value_long
            status.value_short = value_short
            status.burn_long = burn_long
            status.burn_short = burn_short
            status.count_long = count_long
            out.append(status)
        return out

    def maybe_evaluate(self, now: float) -> None:
        """Evaluate at most once per window step (the tick-path entry)."""
        if self._last_eval is None or now - self._last_eval >= self.windows.config.step:
            self.evaluate(now)

    # -- views ---------------------------------------------------------------
    def statuses(self) -> List[SloStatus]:
        return [self._statuses[o.name] for o in self.objectives]

    def worst_state(self) -> str:
        rank = max(
            (STATES.index(s.state) for s in self._statuses.values()),
            default=0,
        )
        return STATES[rank]

    def as_dict(self, now: Optional[float] = None) -> Dict[str, Any]:
        if now is not None:
            self.maybe_evaluate(now)
        return {
            "state": self.worst_state(),
            "windows": {"long": self.long_width, "short": self.short_width},
            "evaluations": self.n_evaluations,
            "transitions": self.n_transitions,
            "objectives": [s.as_dict() for s in self.statuses()],
        }

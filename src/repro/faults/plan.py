"""Fault plans: a declarative description of how the substrate misbehaves.

A :class:`FaultPlan` is a tuple of :class:`FaultSpec` entries, each naming
one fault *kind*, its stochastic rate (or deterministic window) and its
kind-specific parameters.  Plans are plain frozen data -- hashable,
JSON round-trippable, and embeddable in a :class:`repro.grid.GridConfig`
-- so the same (seed, plan) pair always reproduces the same run, and a
chaos result can be filed verbatim as a regression test.

Fault kinds
-----------
``probe_loss``
    Each probe message is lost with probability ``rate`` while the spec
    is active.  The prober retries with capped exponential backoff; a
    retry-budget exhaustion serves the previous (stale) snapshot or, if
    none exists, reports the target as unknown.
``probe_delay``
    Each probe message is delayed by ``Exponential(delay)`` minutes with
    probability ``rate``.  Delays beyond the probe timeout count as a
    loss (timeout + retry).
``lookup_failure``
    Each routed DHT query fails in flight with probability ``rate``.
    The registry retries, re-routing around the hop that dropped the
    query (retry with exclusion); exhaustion degrades to "no record".
``stale_state``
    With probability ``rate``, a departing peer's soft state lingers:
    observers keep serving its last probe snapshot for ``staleness``
    minutes after the departure, as if the TTL had not yet expired.
``admission_failure``
    Each reservation message (end-system or connection) transiently
    fails with probability ``rate``.  Admission and recovery retry;
    exhaustion falls back to the plain rejection/failure path.
``partition``
    A regional partition: each peer is hashed into the minority region
    with probability ``fraction``.  While the spec is active, probes,
    lookups and reservations that cross the cut fail deterministically.

Example plan (the JSON accepted by ``repro run --faults PLAN.json``)::

    {
      "name": "lossy-with-partition",
      "faults": [
        {"kind": "probe_loss", "rate": 0.2},
        {"kind": "lookup_failure", "rate": 0.1},
        {"kind": "admission_failure", "rate": 0.05},
        {"kind": "stale_state", "rate": 0.5, "staleness": 3.0},
        {"kind": "partition", "start": 10.0, "end": 20.0, "fraction": 0.3}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]

#: Every fault kind the injector understands.
FAULT_KINDS: Tuple[str, ...] = (
    "probe_loss",
    "probe_delay",
    "lookup_failure",
    "stale_state",
    "admission_failure",
    "partition",
)

#: Kinds whose firing is a per-operation Bernoulli draw (need ``rate``).
_STOCHASTIC_KINDS = frozenset(FAULT_KINDS) - {"partition"}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled or stochastic fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Per-operation firing probability in ``[0, 1]`` (stochastic
        kinds).  Ignored by ``partition``.
    start / end:
        Active window in simulated minutes; ``end=None`` means "until
        the end of the run".
    delay:
        ``probe_delay``: mean injected delay (minutes, exponential).
    staleness:
        ``stale_state``: how long a departed peer's soft state lingers.
    fraction:
        ``partition``: probability a peer lands in the minority region.
    """

    kind: str
    rate: float = 0.0
    start: float = 0.0
    end: Optional[float] = None
    delay: float = 0.0
    staleness: float = 0.0
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{', '.join(FAULT_KINDS)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"empty fault window [{self.start}, {self.end})"
            )
        if self.kind == "probe_delay" and self.delay <= 0:
            raise ValueError("probe_delay needs a positive mean delay")
        if self.kind == "stale_state" and self.staleness <= 0:
            raise ValueError("stale_state needs a positive staleness")
        if self.kind == "partition" and not 0.0 < self.fraction < 1.0:
            raise ValueError(
                f"partition fraction must be in (0, 1), got {self.fraction}"
            )

    def active(self, now: float) -> bool:
        """Whether the spec's window covers simulated time ``now``."""
        return now >= self.start and (self.end is None or now < self.end)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of fault specs (possibly empty)."""

    faults: Tuple[FaultSpec, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def active(self) -> bool:
        """Whether the plan injects anything at all."""
        return bool(self.faults)

    def specs(self, kind: str) -> Tuple[FaultSpec, ...]:
        """Every spec of one kind, in plan order."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        return tuple(s for s in self.faults if s.kind == kind)

    # -- (de)serialization -------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be an object, got {type(data)}")
        raw = data.get("faults", [])
        if not isinstance(raw, (list, tuple)):
            raise ValueError("'faults' must be a list of fault specs")
        specs = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ValueError(f"faults[{i}] must be an object")
            unknown = set(entry) - {
                "kind", "rate", "start", "end", "delay", "staleness",
                "fraction",
            }
            if unknown:
                raise ValueError(
                    f"faults[{i}] has unknown fields: {sorted(unknown)}"
                )
            if "kind" not in entry:
                raise ValueError(f"faults[{i}] is missing 'kind'")
            specs.append(FaultSpec(**entry))
        return cls(faults=tuple(specs), name=str(data.get("name", "")))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def __str__(self) -> str:
        label = self.name or "fault plan"
        if not self.faults:
            return f"{label}: (empty)"
        parts = []
        for s in self.faults:
            window = (
                "" if s.start == 0 and s.end is None
                else f" @[{s.start:g}, {'∞' if s.end is None else f'{s.end:g}'})"
            )
            if s.kind == "partition":
                parts.append(f"partition(fraction={s.fraction:g}){window}")
            else:
                parts.append(f"{s.kind}(rate={s.rate:g}){window}")
        return f"{label}: " + ", ".join(parts)

"""The fault injector: seeded, sim-time fault decisions for one run.

The injector is the single authority on "does this operation misbehave
right now".  Hardened consumers (the prober, the lookup registry,
admission, recovery) ask it one question per operation; every stochastic
answer comes from one named RNG stream (``rngs.stream("faults")``), and
the simulator's event order is deterministic, so the same
``(seed, plan)`` pair reproduces the same faults -- byte-identical
telemetry included (``tests/telemetry/test_determinism.py``).

Besides the decisions the injector owns the fault bookkeeping: the
``fault.injected`` / ``retry.attempt`` / ``retry.exhausted`` telemetry
events, the matching counters, and the per-kind tallies behind
:meth:`FaultInjector.summary`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict

import numpy as np

from repro.faults.plan import FaultPlan
from repro.sim.rng import derive_seed

__all__ = ["FaultInjector"]

#: Partition-region hashing resolution (probability granularity 2^-64).
_HASH_SPACE = float(2**64)


class FaultInjector:
    """Decides, counts and reports every injected fault of one run.

    Parameters
    ----------
    sim:
        The simulator (fault windows are evaluated on its clock).
    plan:
        The :class:`~repro.faults.plan.FaultPlan` to execute.
    rng:
        A dedicated ``numpy`` generator (the grid passes its
        ``"faults"`` stream); every stochastic decision draws from it in
        simulation order, which keeps runs reproducible.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when set, each
        injection and retry emits a bus event and bumps a counter.
    """

    def __init__(self, sim, plan: FaultPlan, rng, telemetry=None) -> None:
        self.sim = sim
        self.plan = plan
        self.rng = rng
        self.telemetry = telemetry
        #: Total faults injected, and the per-``(kind, site)`` tallies.
        self.n_injected = 0
        self.counts: Counter = Counter()
        #: Retry accounting across every hardened site.
        self.n_retries = 0
        self.n_exhausted = 0
        # Specs by kind, resolved once (plans are immutable).
        self._probe_loss = plan.specs("probe_loss")
        self._probe_delay = plan.specs("probe_delay")
        self._lookup_failure = plan.specs("lookup_failure")
        self._stale_state = plan.specs("stale_state")
        self._admission_failure = plan.specs("admission_failure")
        self._partitions = plan.specs("partition")
        # Region assignment salt: one draw, so different seeds cut the
        # population differently while one run's cut is stable.
        self._partition_salt = int(rng.integers(2**63)) if self._partitions else 0
        #: peer id -> simulated time its lingering soft state expires.
        self._ghosts: Dict[int, float] = {}

    # -- bookkeeping -------------------------------------------------------
    def _roll(self, rate: float) -> bool:
        """One Bernoulli draw (always consumes exactly one variate)."""
        return float(self.rng.random()) < rate

    def inject(self, kind: str, site: str, **fields: Any) -> None:
        """Record one injected fault (and emit it when telemetry is on)."""
        self.n_injected += 1
        self.counts[(kind, site)] += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("fault.injected").inc()
            tel.bus.emit("fault.injected", kind=kind, site=site, **fields)

    def retry_attempt(
        self, site: str, attempt: int, delay: float, **fields: Any
    ) -> None:
        """Record one backoff retry at a hardened site."""
        self.n_retries += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("retry.attempts").inc()
            tel.bus.emit(
                "retry.attempt", site=site, attempt=attempt,
                delay=round(delay, 9), **fields,
            )

    def retry_exhausted(self, site: str, attempts: int, **fields: Any) -> None:
        """Record a retry budget running dry (plain failure path follows)."""
        self.n_exhausted += 1
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("retry.exhausted").inc()
            tel.bus.emit(
                "retry.exhausted", site=site, attempts=attempts, **fields
            )

    # -- probing faults -----------------------------------------------------
    def probe_lost(self, target: int) -> bool:
        """Whether one probe message to ``target`` is lost right now."""
        now = self.sim.now
        for spec in self._probe_loss:
            if spec.active(now) and self._roll(spec.rate):
                self.inject("probe_loss", "probe", target=target)
                return True
        return False

    def probe_delay(self, target: int) -> float:
        """Injected delay (minutes) on one probe message; 0 = on time."""
        now = self.sim.now
        for spec in self._probe_delay:
            if spec.active(now) and self._roll(spec.rate):
                delay = float(self.rng.exponential(spec.delay))
                self.inject(
                    "probe_delay", "probe",
                    target=target, delay=round(delay, 9),
                )
                return delay
        return 0.0

    # -- lookup faults -----------------------------------------------------
    def lookup_fails(self, key: str, from_peer: int, owner_peer: int) -> bool:
        """Whether one routed DHT query fails in flight.

        Partition cuts between the querying peer and the responsible
        node fail deterministically; otherwise each active
        ``lookup_failure`` spec gets one Bernoulli draw.  Retries call
        this again -- the re-route excludes the hop that dropped the
        previous copy, so each copy's fate is an independent draw.
        """
        if self.partitioned(from_peer, owner_peer):
            self.inject(
                "partition", "lookup",
                key=key, from_peer=from_peer, owner=owner_peer,
            )
            return True
        now = self.sim.now
        for spec in self._lookup_failure:
            if spec.active(now) and self._roll(spec.rate):
                self.inject(
                    "lookup_failure", "lookup", key=key, from_peer=from_peer
                )
                return True
        return False

    # -- admission faults ---------------------------------------------------
    def admission_fails(self, site: str, **fields: Any) -> bool:
        """Whether one reservation message transiently fails."""
        now = self.sim.now
        for spec in self._admission_failure:
            if spec.active(now) and self._roll(spec.rate):
                self.inject("admission_failure", site, **fields)
                return True
        return False

    # -- stale soft state ---------------------------------------------------
    def note_departure(self, peer_id: int) -> None:
        """Called once per departure; may leave lingering soft state.

        Also releases the ghosts that expired unobserved.  (Not a sim
        timer: one would outlive the session drain and move the clock
        the sanitizer ledger's final record stamps.)
        """
        now = self.sim.now
        for pid in [p for p, until in self._ghosts.items() if now >= until]:
            del self._ghosts[pid]
        for spec in self._stale_state:
            if spec.active(now) and self._roll(spec.rate):
                self._ghosts[peer_id] = now + spec.staleness
                self.inject(
                    "stale_state", "probe",
                    peer=peer_id, until=round(now + spec.staleness, 9),
                )
                return

    def ghost_active(self, peer_id: int) -> bool:
        """Whether observers still believe departed ``peer_id`` is alive."""
        expires = self._ghosts.get(peer_id)
        return expires is not None and self.sim.now < expires

    # -- partitions ---------------------------------------------------------
    def _minority(self, spec_index: int, fraction: float, peer_id: int) -> bool:
        h = derive_seed(self._partition_salt, f"region/{spec_index}/{peer_id}")
        return h / _HASH_SPACE < fraction

    def cut_mask(self, observer: int, peer_ids: np.ndarray) -> np.ndarray:
        """Which of ``peer_ids`` sit across an active cut from ``observer``:
        :meth:`partitioned`, one candidate block at a time."""
        now = self.sim.now
        mask = np.zeros(len(peer_ids), dtype=bool)
        for i, spec in enumerate(self._partitions):
            if spec.active(now):
                side = self._minority(i, spec.fraction, observer)
                mask |= np.fromiter(
                    (self._minority(i, spec.fraction, pid) != side
                     for pid in peer_ids.tolist()),
                    bool, len(peer_ids),
                )
        return mask

    def partitioned(self, a: int, b: int) -> bool:
        """Whether peers ``a`` and ``b`` sit across an active cut."""
        if not self._partitions:
            return False
        now = self.sim.now
        for i, spec in enumerate(self._partitions):
            if not spec.active(now):
                continue
            if self._minority(i, spec.fraction, a) != self._minority(
                i, spec.fraction, b
            ):
                return True
        return False

    # -- reporting -----------------------------------------------------------
    def summary(self) -> str:
        """Per-(kind, site) injection tallies plus retry totals."""
        lines = [
            f"faults: {self.n_injected} injected, "
            f"{self.n_retries} retries, {self.n_exhausted} budgets exhausted"
        ]
        if self.counts:
            width = max(len(f"{k}@{s}") for k, s in self.counts)
            for (kind, site), count in sorted(self.counts.items()):
                label = f"{kind}@{site}"
                lines.append(f"  {label:<{width}}  {count:>8d}")
        return "\n".join(lines)

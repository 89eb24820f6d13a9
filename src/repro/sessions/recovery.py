"""Runtime failure detection and recovery (the paper's future work).

§4.2 closes: "the performance of P2P systems is very sensitive to the
topological variation ... Under such circumstances, we do need runtime
failure detection and recovery to improve the performance", and the
conclusion lists failure recovery as future work.  This module implements
it so the claim can be measured rather than asserted:

* **Detection**: the churn machinery reports each departure; a
  configurable ``detection_delay`` models the probing/soft-state timeout
  before the repair runs (0 = instant detection).
* **Recovery**: the composed service path is kept (peer death does not
  affect its QoS consistency); only the *dynamic peer selection tier*
  re-runs for the slots the departed peer held.  Replacements come from
  the instance's surviving replicas via the same Φ/uptime selector, with
  the session's *remaining* duration as the uptime target.  Reservations
  follow make-before-break: the replacement's resources and connections
  are acquired first, then the stale ones are released, so a failed
  repair can always fall back to the plain failure path without
  double-releasing anything.

If re-selection or re-admission fails, the attempt budget is exhausted,
the user's own host left, or a second participant died in the detection
window, the session fails exactly as without recovery.

Fault tolerance
---------------
With a :class:`~repro.faults.injector.FaultInjector`, individual repair
reservations may transiently fail.  Unlike the synchronous setup path,
recovery is event driven, so transient failures reschedule the repair at
a *real* simulated backoff delay (``RecoveryConfig.retry``); transient
retries do not consume the ``max_attempts`` repair budget.  A genuine
shortage, or a drained transient budget, falls through to the plain
failure path -- make-before-break guarantees nothing was double-released
along the way.

``benchmarks/bench_recovery.py`` reruns the Fig. 7 churn sweep with
recovery enabled and reports the improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.selection import PeerSelector
from repro.faults.backoff import RetryPolicy
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.sessions.admission import chain_edges
from repro.sessions.session import Session, SessionLedger
from repro.sim.engine import Simulator

__all__ = ["RecoveryConfig", "RecoveryManager"]


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for runtime failure recovery.

    Attributes
    ----------
    enabled:
        Master switch (``False`` reduces to plain ``fail_peer``).
    detection_delay:
        Minutes between departure and repair attempt.
    max_attempts:
        How many repairs one session may consume over its lifetime.
    retry:
        Backoff for *transient* reservation failures during a repair
        (fault injection only); these retries reschedule on the sim
        clock and do not consume ``max_attempts``.
    """

    enabled: bool = True
    detection_delay: float = 0.0
    max_attempts: int = 3
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.detection_delay < 0:
            raise ValueError("detection delay must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("need at least one recovery attempt")


class RecoveryManager:
    """Repairs sessions that lost a provisioning peer.

    The grid calls :meth:`on_peer_departure` in place of
    ``ledger.fail_peer``; unrepaired sessions are failed through the
    ledger as usual, so metrics flow unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        directory: SoAPeerDirectory,
        network: NetworkModel,
        ledger: SessionLedger,
        selector: PeerSelector,
        hosts_of: Callable[[str], Sequence[int]],
        resolve_neighbors: Callable[[int, Sequence[Sequence[int]], bool], None],
        rng: np.random.Generator,
        config: RecoveryConfig | None = None,
        telemetry=None,
        injector=None,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.network = network
        self.ledger = ledger
        self.selector = selector
        self.hosts_of = hosts_of
        self.resolve_neighbors = resolve_neighbors
        self.rng = rng
        self.config = config or RecoveryConfig()
        #: Optional :class:`repro.telemetry.Telemetry`: repair events and
        #: the departure->repair latency histogram.
        self.telemetry = telemetry
        #: Optional fault injection (transient repair failures).
        self.injector = injector
        self._attempts: dict[int, int] = {}
        #: session id -> transient retries consumed for the current repair.
        self._transient: dict[int, int] = {}
        self.n_repairs = 0
        self.n_repair_failures = 0

    # -- entry point -----------------------------------------------------------
    def on_peer_departure(self, peer_id: int) -> None:
        """Handle a departure: repair what can be repaired, fail the rest."""
        if not self.config.enabled:
            self.ledger.fail_peer(peer_id)
            return
        for sid in list(self.ledger.sessions_on_peer(peer_id)):
            session = self._active(sid)
            if session is None:
                continue
            if session.user_peer == peer_id:
                # The requesting host itself left: nothing to deliver to.
                self.ledger.fail_session(
                    sid, f"user peer {peer_id} departed", skip_peer=peer_id
                )
                continue
            departed_at = self.sim.now
            if self.config.detection_delay > 0:
                self.sim.call_in(
                    self.config.detection_delay,
                    self._attempt, sid, peer_id, departed_at,
                )
            else:
                self._attempt(sid, peer_id, departed_at)

    # -- internals ---------------------------------------------------------------
    def _active(self, session_id: int) -> Optional[Session]:
        for s in self.ledger.active_sessions():
            if s.session_id == session_id:
                return s
        return None

    def _give_up(self, session_id: int, dead_peer: int) -> None:
        self._transient.pop(session_id, None)
        self.n_repair_failures += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter("recovery.failed").inc()
            self.telemetry.bus.emit(
                "recovery.failed", session_id=session_id, dead_peer=dead_peer
            )
        self.ledger.fail_session(
            session_id,
            f"peer {dead_peer} departed (unrecovered)",
            skip_peer=dead_peer,
        )

    def _attempt(
        self, session_id: int, dead_peer: int, departed_at: float
    ) -> None:
        session = self._active(session_id)
        if session is None:  # completed or failed during the window
            return
        # A second departure during the detection window is fatal.
        others_alive = all(
            self.directory.is_alive(pid)
            for pid in session.peers
            if pid != dead_peer
        )
        if not others_alive or not self.directory.is_alive(session.user_peer):
            self._give_up(session_id, dead_peer)
            return
        attempts = self._attempts.get(session_id, 0)
        if attempts >= self.config.max_attempts:
            self._give_up(session_id, dead_peer)
            return
        self._attempts[session_id] = attempts + 1

        new_peers = self._select_replacements(session, dead_peer)
        swap = (
            "shortage" if new_peers is None
            else self._swap_reservations(session, dead_peer, new_peers)
        )
        if swap == "transient":
            # An injected hiccup, not a shortage: back off on the sim
            # clock and retry without consuming the repair budget.
            self._attempts[session_id] = attempts
            n = self._transient.get(session_id, 0) + 1
            inj = self.injector
            retry = self.config.retry
            if n > retry.max_retries:
                inj.retry_exhausted(
                    "recovery", attempts=n, session_id=session_id
                )
                self._give_up(session_id, dead_peer)
                return
            self._transient[session_id] = n
            delay = retry.delay(n, inj.rng)
            inj.retry_attempt(
                "recovery", n, delay, session_id=session_id
            )
            self.sim.call_in(delay, self._attempt, session_id, dead_peer,
                             departed_at)
            return
        if swap != "ok":
            self._give_up(session_id, dead_peer)
            return
        self._transient.pop(session_id, None)
        old_peers = tuple(session.peers)
        self.ledger.reassign_session_peers(session_id, new_peers)
        self.n_repairs += 1
        if self.telemetry is not None:
            latency = self.sim.now - departed_at
            self.telemetry.metrics.counter("recovery.repaired").inc()
            self.telemetry.metrics.histogram("recovery.latency").observe(latency)
            self.telemetry.bus.emit(
                "recovery.repaired",
                session_id=session_id,
                dead_peer=dead_peer,
                latency=latency,
                old_peers=old_peers,
                new_peers=new_peers,
            )

    def _select_replacements(
        self, session: Session, dead_peer: int
    ) -> Optional[Tuple[int, ...]]:
        """Re-run tier 2 for the dead slots (reverse-flow discipline)."""
        peers = list(session.peers)
        n = len(peers)
        remaining = max(session.end - self.sim.now, 0.0)
        for slot in range(n - 1, -1, -1):  # user side first
            if peers[slot] != dead_peer:
                continue
            inst = session.instances[slot]
            candidates = [
                pid
                for pid in self.hosts_of(inst.instance_id)
                if pid != dead_peer and self.directory.is_alive(pid)
            ]
            if not candidates:
                return None
            selecting = peers[slot + 1] if slot + 1 < n else session.user_peer
            self.resolve_neighbors(selecting, [candidates], False)
            outcome = self.selector.select_hop(
                selecting_peer=selecting,
                candidates=candidates,
                requirement=inst.resources,
                bandwidth_req=inst.bandwidth,
                session_duration=remaining,
                rng=self.rng,
            )
            if outcome.peer_id is None:
                return None
            peers[slot] = outcome.peer_id
        return tuple(peers)

    def _swap_reservations(
        self,
        session: Session,
        dead_peer: int,
        new_peers: Tuple[int, ...],
    ) -> str:
        """Make-before-break: acquire the repaired holds, then drop the
        stale ones.  Returns ``"ok"``, ``"shortage"`` (a ledger genuinely
        ran short) or ``"transient"`` (an injected hiccup worth a
        backoff-retry).  On any failure everything acquired here is
        rolled back and the session's original holds are untouched."""
        instances = session.instances
        old_peers = session.peers
        n = len(old_peers)
        inj = self.injector

        old_edges = session.connections()
        new_edges = chain_edges(new_peers, session.user_peer, instances)
        changed = [
            (o, w) for o, w in zip(old_edges, new_edges) if o != w
        ]

        # 1. Acquire end-system resources on the replacement peers.
        acquired_res: List[Tuple[int, int]] = []  # (slot, peer)

        def undo_res() -> None:
            for s, pid in acquired_res:
                self.directory.release(pid, instances[s].resources)

        for slot in range(n):
            if old_peers[slot] != dead_peer:
                continue
            if inj is not None and inj.admission_fails(
                "recovery", peer=new_peers[slot], session_id=session.session_id
            ):
                undo_res()
                return "transient"
            if not self.directory.reserve(
                new_peers[slot], instances[slot].resources
            ):
                undo_res()
                return "shortage"
            acquired_res.append((slot, new_peers[slot]))

        # 2. Acquire the changed connections.
        acquired_bw: List[Tuple[int, int, float]] = []

        def undo_all() -> None:
            for s, t, b in acquired_bw:
                self.network.release(s, t, b)
            undo_res()

        for _old, (src, dst, bw) in changed:
            if inj is not None and inj.partitioned(src, dst):
                inj.inject("partition", "recovery", src=src, dst=dst)
                undo_all()
                return "transient"
            if not self.network.reserve(src, dst, bw):
                undo_all()
                return "shortage"
            acquired_bw.append((src, dst, bw))

        # 3. Break: drop the stale connections (the dead peer's own
        # end-system share died with it -- nothing to release there).
        for (src, dst, bw), _new in changed:
            self.network.release(src, dst, bw)
        return "ok"

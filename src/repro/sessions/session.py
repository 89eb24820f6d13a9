"""The session ledger: lifecycle of admitted service aggregations.

``SessionLedger`` owns every active session.  It

* admits sessions atomically (via :mod:`repro.sessions.admission`),
* schedules their completion on the simulation clock,
* fails every session touching a departing peer
  (:meth:`SessionLedger.fail_peer`, called by the churn machinery), and
* reports outcomes through an observer callback (the grid turns it into
  the always-dispatched ``session.resolved`` bus event) so the metrics
  layer never needs to poll.

A completion, an early release and a failure are one teardown
(:meth:`SessionLedger._resolve`): they differ only in the outcome they
record.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.services.model import ServiceInstance
from repro.sessions.admission import (
    chain_edges,
    reserve_session,
    rollback_session,
)
from repro.sim.engine import Simulator

__all__ = ["Session", "SessionLedger", "SessionState"]


class SessionState(enum.Enum):
    ACTIVE = "active"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(slots=True)
class Session:
    """One admitted aggregation: instances pinned to peers, holding state."""

    session_id: int
    request_id: int
    user_peer: int
    instances: Tuple[ServiceInstance, ...]
    peers: Tuple[int, ...]
    start: float
    duration: float
    state: SessionState = SessionState.ACTIVE
    failure_reason: Optional[str] = None
    #: Reservation-release latch: set by the ledger the first time this
    #: session's holds are rolled back, so teardown paths that race (API
    #: delete vs. scheduled completion vs. recovery) can never
    #: double-credit the resource books.
    released: bool = False
    #: Runtime recovery's budgets, which die with the session: repairs
    #: tried so far, and transient retries of the current repair.
    repair_attempts: int = 0
    repair_retries: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def participants(self) -> Set[int]:
        """Provisioning peers (the user's own host is not provisioned)."""
        return set(self.peers)

    def connections(self) -> List[Tuple[int, int, float]]:
        """``(src, dst, bw)`` per connection, flow order."""
        return chain_edges(self.peers, self.user_peer, self.instances)


class SessionLedger:
    """Owns all active sessions and their reservations."""

    def __init__(
        self,
        sim: Simulator,
        directory: SoAPeerDirectory,
        network: NetworkModel,
        on_outcome: Optional[Callable[[Session], None]] = None,
        telemetry=None,
        injector=None,
    ) -> None:
        self.sim = sim
        self.directory = directory
        self.network = network
        self.on_outcome = on_outcome
        #: Optional :class:`repro.telemetry.Telemetry`: admit/complete/fail
        #: events + a detached sim-time span per session lifetime.
        self.telemetry = telemetry
        #: Optional fault injection: transient admission failures retry
        #: (the injector's rule) before surfacing as a rejection.
        self.injector = injector
        #: Optional :class:`repro.sim.sanitizer.Sanitizer` write barrier;
        #: set by the grid when ``GridConfig.sanitize`` is on.
        self.sanitizer = None
        self._spans: Dict[int, object] = {}
        self._active: Dict[int, Session] = {}
        self._by_peer: Dict[int, Set[int]] = {}
        self._next_id = 0
        self.n_admitted = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_released = 0

    # -- admission -----------------------------------------------------------
    def admit(
        self,
        request_id: int,
        user_peer: int,
        instances: Sequence[ServiceInstance],
        peers: Sequence[int],
        duration: float,
    ) -> Session:
        """Admit a session (raises :class:`AdmissionError` on shortage).

        On success the session holds all its reservations and its
        completion is scheduled ``duration`` minutes out.
        """
        reserve_session(
            self.directory, self.network, instances, peers, user_peer,
            injector=self.injector,
        )
        session = Session(
            session_id=self._next_id,
            request_id=request_id,
            user_peer=user_peer,
            instances=tuple(instances),
            peers=tuple(peers),
            start=self.sim.now,
            duration=duration,
        )
        self._next_id += 1
        self._active[session.session_id] = session
        for pid in sorted(session.participants | {user_peer}):
            self._by_peer.setdefault(pid, set()).add(session.session_id)
        self.n_admitted += 1
        if self.sanitizer is not None:
            self.sanitizer.note_write(
                "sessions", "admit", self.directory.generation,
                n=len(session.peers),
            )
        self.sim.call_in(
            duration, self._resolve, session.session_id, "completed"
        )
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("session.admitted").inc()
            tel.bus.emit(
                "session.admitted",
                session_id=session.session_id,
                request_id=request_id,
                peers=list(peers),
                duration=duration,
            )
            self._spans[session.session_id] = tel.tracer.open(
                "session", session_id=session.session_id
            )
        return session

    # -- lifecycle ---------------------------------------------------------
    def _release(self, session: Session, skip_peer: Optional[int] = None) -> None:
        # Idempotence guard: a session's holds are released exactly once.
        # Without it, an API `DELETE /sessions/{id}` racing the scheduled
        # completion (or a recovery repair) would credit capacity twice
        # and corrupt the conservation invariant.
        if session.released:
            return
        session.released = True
        if self.sanitizer is not None:
            self.sanitizer.note_write(
                "sessions", "release", self.directory.generation,
                n=len(session.peers),
            )
        held_res = list(zip(session.peers, (i.resources for i in session.instances)))
        held_bw = session.connections()
        rollback_session(
            self.directory, self.network, held_res, held_bw, skip_peer=skip_peer
        )

    def _unlink(self, session_id: int, pids: Iterable[int]) -> None:
        """Drop ``session_id`` from the peer index of each of ``pids``."""
        for pid in pids:
            members = self._by_peer.get(pid)
            if members is not None:
                members.discard(session_id)
                if not members:
                    del self._by_peer[pid]

    def _resolve(
        self,
        session_id: int,
        outcome: str,
        reason: Optional[str] = None,
        skip_peer: Optional[int] = None,
    ) -> Optional[Session]:
        """The one teardown of an active session (``None`` if it is not):
        ``outcome`` is ``"completed"``, ``"released"`` or ``"failed"``;
        only the state, tallies and ``session.<outcome>`` records differ."""
        session = self._active.get(session_id)
        if session is None:
            return None
        failed = outcome == "failed"
        session.state = SessionState.FAILED if failed else SessionState.COMPLETED
        session.failure_reason = reason
        self._release(session, skip_peer=skip_peer)
        del self._active[session_id]
        self._unlink(session_id, sorted(session.participants | {session.user_peer}))
        if failed:
            self.n_failed += 1
        else:
            self.n_completed += 1
            self.n_released += outcome == "released"
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter("session." + outcome).inc()
            request_id = session.request_id
            if failed:
                tel.bus.emit("session.failed", session_id=session_id,
                             request_id=request_id, reason=reason)
            elif outcome == "released":
                tel.bus.emit("session.released", session_id=session_id,
                             request_id=request_id,
                             held_minutes=self.sim.now - session.start)
            else:
                tel.bus.emit("session.completed", session_id=session_id,
                             request_id=request_id)
            span = self._spans.pop(session_id, None)
            if span is not None:
                span.end(outcome=outcome)
        if self.on_outcome is not None:
            self.on_outcome(session)
        return session

    def release_session(self, session_id: int) -> Optional[Session]:
        """Tear an active session down early at the owner's request.

        This is the serving plane's ``DELETE /sessions/{id}`` path: the
        teardown a completion runs, so the scheduled completion becomes
        a no-op (the session is no longer active when it fires), and the
        outcome is reported as a completion with reason
        ``"client-release"``.

        Returns the released session, or ``None`` if ``session_id`` is
        not active (already completed, failed, or released) -- callers
        can therefore retry the call safely; nothing is ever released
        twice (see :meth:`_release`).
        """
        return self._resolve(session_id, "released", "client-release")

    def fail_session(
        self, session_id: int, reason: str, skip_peer: Optional[int] = None
    ) -> Optional[Session]:
        """Fail one active session: release holds, detach, report.

        ``skip_peer`` suppresses the end-system release for a departed
        peer (its ledger died with it).  Returns the failed session, or
        ``None`` if it was not active.
        """
        return self._resolve(session_id, "failed", reason, skip_peer)

    def fail_peer(self, peer_id: int) -> List[Session]:
        """Fail every session that ``peer_id`` participates in.

        Called when a peer departs; the departing peer's own end-system
        reservations are not released (they leave with it), everything
        else is.  Returns the failed sessions.
        """
        failed = []
        # Sorted, not set order: failure order feeds telemetry and the
        # rollback sequence, so it must not depend on hash order.
        for sid in sorted(self._by_peer.get(peer_id, ())):
            session = self.fail_session(
                sid, f"peer {peer_id} departed", skip_peer=peer_id
            )
            if session is not None:
                failed.append(session)
        return failed

    def reassign_session_peers(
        self, session_id: int, new_peers: Tuple[int, ...]
    ) -> None:
        """Repoint an active session at a repaired peer placement.

        Used by runtime failure recovery: the caller has already moved
        the underlying reservations; this keeps the session record and
        the peer -> sessions index consistent.
        """
        session = self._active.get(session_id)
        if session is None:
            raise KeyError(f"session {session_id} is not active")
        if len(new_peers) != len(session.peers):
            raise ValueError("peer count must match the instance count")
        old = session.participants | {session.user_peer}
        session.peers = tuple(new_peers)
        new = session.participants | {session.user_peer}
        if self.sanitizer is not None:
            self.sanitizer.note_write(
                "sessions", "repair", self.directory.generation,
                n=len(new_peers),
            )
        self._unlink(session_id, old - new)
        for pid in new - old:
            self._by_peer.setdefault(pid, set()).add(session_id)

    # -- inspection -----------------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self._active)

    def active_sessions(self) -> List[Session]:
        return list(self._active.values())

    def active_session(self, session_id: int) -> Optional[Session]:
        """The active session ``session_id``, or ``None``."""
        return self._active.get(session_id)

    def sessions_on_peer(self, peer_id: int) -> List[int]:
        """Session ids provisioned on ``peer_id``, ascending.

        Sorted list (not the index's set): failure recovery iterates
        this across the module boundary, and repair order must not
        depend on set order.
        """
        return sorted(self._by_peer.get(peer_id, ()))

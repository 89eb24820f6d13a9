"""Atomic multi-peer admission: reserve everything or nothing.

One pass, :func:`reserve_all`, reserves

* each hold's end-system requirement ``R`` on its peer, and
* each connection's bandwidth ``b`` on the network model (which debits
  the sender's uplink, the receiver's downlink and the pair's bottleneck
  capacity),

rolling back every prior reservation on the first shortage so a rejected
request leaves no residue.  Admission (:func:`reserve_session`) runs it
over the whole delivery chain; a runtime repair
(:mod:`repro.sessions.recovery`) runs it over the replacement peers'
holds and the connections they change, so every release credits exactly
what one of these passes debited.  The rollback discipline is what keeps
the grid's books balanced across hundreds of thousands of simulated
requests (property-tested in ``tests/sessions/test_conservation.py``).

Fault tolerance
---------------
With a :class:`~repro.faults.injector.FaultInjector`, individual
reservation messages may transiently fail (``admission_failure``) and
connections crossing an active partition fail deterministically.  Each
transient failure rolls back the whole attempt (the all-or-nothing
discipline is not relaxed under faults) and retries under the injector's
backoff rule; budget exhaustion surfaces as a
:class:`TransientAdmissionError`, which callers treat as a rejection.
"""

from __future__ import annotations

from itertools import count
from typing import List, Sequence, Tuple

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.services.model import ServiceInstance

__all__ = [
    "AdmissionError",
    "chain_edges",
    "TransientAdmissionError",
    "reserve_all",
    "reserve_session",
    "rollback_session",
]


class AdmissionError(Exception):
    """A reservation could not be satisfied (request must be rejected)."""

    def __init__(self, message: str, stage: str) -> None:
        super().__init__(message)
        #: ``"resources"``, ``"bandwidth"`` or ``"transient"`` -- which
        #: ledger ran short (or whether the failure was injected).
        self.stage = stage


class TransientAdmissionError(AdmissionError):
    """An injected transient failure (retriable, unlike a shortage)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, stage="transient")


def chain_edges(
    peers: Sequence[int], user_peer: int, instances: Sequence[ServiceInstance]
) -> List[Tuple[int, int, float]]:
    """``(src, dst, bw)`` per connection, flow order.

    ``peers[i]`` hosts ``instances[i]``; the final connection delivers to
    the user's own host.
    """
    dsts = [*peers[1:], user_peer]
    return [(s, d, inst.bandwidth) for s, d, inst in zip(peers, dsts, instances)]


def reserve_session(
    directory: SoAPeerDirectory,
    network: NetworkModel,
    instances: Sequence[ServiceInstance],
    peers: Sequence[int],
    user_peer: int,
    injector=None,
) -> None:
    """Reserve all resources for a session; raise and roll back on failure.

    :func:`reserve_all` over the whole chain, retried under the
    injector's backoff rule after each transient failure.

    Raises
    ------
    AdmissionError
        If any peer cannot fit its instance's ``R`` (stage
        ``"resources"``) or any connection cannot fit its ``b`` (stage
        ``"bandwidth"``).  With an ``injector``, a transient failure
        that survives the retry budget raises
        :class:`TransientAdmissionError` (stage ``"transient"``).  No
        reservations remain held afterwards in any case.
    """
    if len(instances) != len(peers):
        raise ValueError(
            f"{len(instances)} instances but {len(peers)} peers selected"
        )
    holds = list(zip(peers, instances))
    edges = chain_edges(peers, user_peer, instances)
    for attempt in count(1):
        try:
            reserve_all(directory, network, holds, edges, injector)
            return
        except TransientAdmissionError:
            if injector.retry_delay("admission", attempt, user_peer=user_peer) is None:
                raise


def reserve_all(
    directory: SoAPeerDirectory,
    network: NetworkModel,
    holds: Sequence[Tuple[int, ServiceInstance]],
    edges: Sequence[Tuple[int, int, float]],
    injector=None,
    session_id: int | None = None,
) -> None:
    """The one all-or-nothing reservation pass, admission's and repair's.

    Each ``(peer, instance)`` hold debits the instance's ``R`` on the
    peer, then each ``(src, dst, b)`` edge debits ``b`` on the network;
    the first failure credits back what this pass debited, in the order
    it debited it, and raises :class:`AdmissionError`.  Injected faults
    are recorded at site ``"admission"`` naming each hold's instance, or,
    for the repair of ``session_id``, at site ``"recovery"`` naming the
    session.
    """
    site = "admission" if session_id is None else "recovery"
    held_res: List[Tuple[int, ResourceVector]] = []
    held_bw: List[Tuple[int, int, float]] = []
    try:
        for pid, inst in holds:
            if not directory.is_alive(pid):
                raise AdmissionError(
                    f"peer {pid} is not alive", stage="resources"
                )
            if injector is not None and injector.admission_fails(
                site, peer=pid,
                **({"instance": inst.instance_id} if session_id is None
                   else {"session_id": session_id}),
            ):
                raise TransientAdmissionError(
                    f"reservation message to peer {pid} lost"
                )
            if not directory.reserve(pid, inst.resources):
                raise AdmissionError(
                    f"peer {pid} cannot fit {inst.instance_id} "
                    f"(needs {inst.resources.values}, "
                    f"has {directory[pid].available.values})",
                    stage="resources",
                )
            held_res.append((pid, inst.resources))
        for src, dst, bw in edges:
            if injector is not None and injector.partitioned(src, dst):
                injector.inject("partition", site, src=src, dst=dst)
                raise TransientAdmissionError(
                    f"connection {src} -> {dst} crosses a partition"
                )
            if not network.reserve(src, dst, bw):
                raise AdmissionError(
                    f"no {bw:.0f} bps available on {src} -> {dst}",
                    stage="bandwidth",
                )
            held_bw.append((src, dst, bw))
    except AdmissionError:
        rollback_session(directory, network, held_res, held_bw)
        raise


def rollback_session(
    directory: SoAPeerDirectory,
    network: NetworkModel,
    held_res: Sequence[Tuple[int, ResourceVector]],
    held_bw: Sequence[Tuple[int, int, float]],
    skip_peer: int | None = None,
) -> None:
    """Release previously reserved resources/bandwidth.

    ``skip_peer`` suppresses the end-system credit for one peer -- the
    one departing now: departure handling runs before the directory
    retires the peer, so its row is still alive, but its ledger is
    leaving with it.
    """
    for pid, req in held_res:
        if pid != skip_peer:
            directory.release(pid, req)
    for src, dst, bw in held_bw:
        network.release(src, dst, bw)

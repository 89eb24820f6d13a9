"""Atomic multi-peer admission: reserve everything or nothing.

Admission walks the delivery chain reserving

* each instance's end-system requirement ``R`` on its selected peer, and
* each connection's bandwidth ``b`` on the network model (which debits
  the sender's uplink, the receiver's downlink and the pair's bottleneck
  capacity),

rolling back every prior reservation on the first shortage so a rejected
request leaves no residue.  The rollback discipline is what keeps the
grid's books balanced across hundreds of thousands of simulated requests
(property-tested in ``tests/sessions/test_conservation.py``).

Fault tolerance
---------------
With a :class:`~repro.faults.injector.FaultInjector`, individual
reservation messages may transiently fail (``admission_failure``) and
connections crossing an active partition fail deterministically.  Each
transient failure rolls back the whole attempt (the all-or-nothing
discipline is not relaxed under faults) and retries with capped
exponential backoff; budget exhaustion surfaces as a
:class:`TransientAdmissionError`, which callers treat as a rejection.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.services.model import ServiceInstance

__all__ = [
    "AdmissionError",
    "chain_edges",
    "TransientAdmissionError",
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
    edges = []
    for i, inst in enumerate(instances):
        dst = peers[i + 1] if i + 1 < len(peers) else user_peer
        edges.append((peers[i], dst, inst.bandwidth))
    return edges


def reserve_session(
    directory: SoAPeerDirectory,
    network: NetworkModel,
    instances: Sequence[ServiceInstance],
    peers: Sequence[int],
    user_peer: int,
    injector=None,
    retry=None,
    requirements: Optional[np.ndarray] = None,
) -> None:
    """Reserve all resources for a session; raise and roll back on failure.

    ``requirements`` is the instances' ``R`` stacked in order, when the
    caller holds it (the vectorized stage stacks it otherwise).

    Raises
    ------
    AdmissionError
        If any peer cannot fit its instance's ``R`` (stage
        ``"resources"``) or any connection cannot fit its ``b`` (stage
        ``"bandwidth"``).  With an ``injector``, a transient failure
        that survives the ``retry`` budget raises
        :class:`TransientAdmissionError` (stage ``"transient"``).  No
        reservations remain held afterwards in any case.
    """
    if len(instances) != len(peers):
        raise ValueError(
            f"{len(instances)} instances but {len(peers)} peers selected"
        )
    if injector is None:
        if not _soa_reserve(
            directory, network, instances, peers, user_peer, requirements
        ):
            _reserve_attempt(directory, network, instances, peers, user_peer)
        return
    attempts = 0
    while True:
        try:
            _reserve_attempt(
                directory, network, instances, peers, user_peer, injector
            )
            return
        except TransientAdmissionError:
            attempts += 1
            if retry is None or attempts > retry.max_retries:
                injector.retry_exhausted(
                    "admission", attempts=attempts, user_peer=user_peer
                )
                raise
            injector.retry_attempt(
                "admission", attempts, retry.delay(attempts, injector.rng),
                user_peer=user_peer,
            )


def _soa_reserve(
    directory: SoAPeerDirectory,
    network: NetworkModel,
    instances: Sequence[ServiceInstance],
    peers: Sequence[int],
    user_peer: int,
    requirements: Optional[np.ndarray] = None,
) -> bool:
    """Vectorized resource stage over the peer store.

    Returns ``True`` when the whole reservation was handled here.
    Returns ``False`` -- with *no state mutated* -- whenever the scalar
    path must run instead: duplicate peers (NumPy fancy-index writes do
    not accumulate), a dead/unknown peer, or a resource shortage.  The
    last two matter for bit-exactness: the
    scalar attempt mutates earlier peers and then rolls them back, and
    ``(a - r) + r`` need not equal ``a`` in floats, so the failure path
    must replay the exact mutate-then-rollback sequence.  On the success
    path an elementwise fancy-index subtract over *distinct* rows is
    bitwise-identical to the sequential per-peer subtracts.
    """
    if not peers:
        return False
    store = directory.store
    row_of = directory.row_of
    rows: List[int] = []
    for pid in peers:
        row = row_of(pid)
        if row < 0:
            return False  # dead/unknown: scalar replay for exact errors
        rows.append(row)
    if len(set(rows)) != len(rows):
        return False  # duplicate peers need sequential accounting
    rows_arr = np.fromiter(rows, np.int64, len(rows))
    reqs = requirements
    if reqs is None:
        reqs = np.stack([inst.resources.values for inst in instances])
    avail = store.available[rows_arr]
    if not (avail >= reqs).all():
        return False  # shortage: scalar replay of mutate-then-rollback
    store.available[rows_arr] = avail - reqs
    held_bw: List[Tuple[int, int, float]] = []
    for src, dst, bw in chain_edges(peers, user_peer, instances):
        if network.reserve(src, dst, bw):
            held_bw.append((src, dst, bw))
            continue
        # Bandwidth shortage: credit the vector debit back (elementwise
        # adds over the same distinct rows -- the bits the scalar
        # release sequence produces) and release the held edges.
        store.available[rows_arr] += reqs
        for s, d, b in held_bw:
            network.release(s, d, b)
        raise AdmissionError(
            f"no {bw:.0f} bps available on {src} -> {dst}",
            stage="bandwidth",
        )
    return True


def _reserve_attempt(
    directory: SoAPeerDirectory,
    network: NetworkModel,
    instances: Sequence[ServiceInstance],
    peers: Sequence[int],
    user_peer: int,
    injector=None,
) -> None:
    """One all-or-nothing reservation pass (rolled back on any failure)."""
    held_res: List[Tuple[int, ResourceVector]] = []
    held_bw: List[Tuple[int, int, float]] = []
    try:
        for inst, pid in zip(instances, peers):
            peer = directory.get(pid)
            if peer is None or not peer.alive:
                raise AdmissionError(
                    f"peer {pid} is not alive", stage="resources"
                )
            if injector is not None and injector.admission_fails(
                "admission", peer=pid, instance=inst.instance_id
            ):
                raise TransientAdmissionError(
                    f"reservation message to peer {pid} lost"
                )
            if not peer.reserve(inst.resources):
                raise AdmissionError(
                    f"peer {pid} cannot fit {inst.instance_id} "
                    f"(needs {inst.resources.values}, "
                    f"has {peer.available.values})",
                    stage="resources",
                )
            held_res.append((pid, inst.resources))
        for src, dst, bw in chain_edges(peers, user_peer, instances):
            if injector is not None and injector.partitioned(src, dst):
                injector.inject("partition", "admission", src=src, dst=dst)
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

    ``skip_peer`` suppresses the end-system release for one peer -- used
    when that peer departed (its ledger died with it; releasing onto the
    corpse would be harmless but misleading in stats).
    """
    if skip_peer is None and held_res:
        # Block credit: one fancy-index add over distinct live rows is
        # bitwise-identical to the sequential per-peer releases.  Any
        # corpse (row -1), duplicate peer, or over-release (the scalar
        # guard would raise peer-by-peer) falls through to the exact
        # scalar sequence.
        rows = [directory.row_of(pid) for pid, _ in held_res]
        if min(rows) >= 0 and len(set(rows)) == len(rows):
            store = directory.store
            rows_arr = np.fromiter(rows, np.int64, len(rows))
            reqs = np.stack([req.values for _, req in held_res])
            new = store.available[rows_arr] + reqs
            if not (new > store.capacity[rows_arr] + 1e-9).any():
                store.available[rows_arr] = new
                for src, dst, bw in held_bw:
                    network.release(src, dst, bw)
                return
    for pid, req in held_res:
        if pid == skip_peer:
            continue
        peer = directory.get(pid)
        if peer is not None:
            peer.release(req)
    for src, dst, bw in held_bw:
        network.release(src, dst, bw)

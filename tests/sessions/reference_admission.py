"""Admission and repair as one object per peer: the models
``reserve_session`` and recovery's reservation swap are held to.

Until peer state lived only in the store's rows, admission kept two
paths: a vectorised block debit over the selected rows, and the scalar
pass below -- ``_reserve_attempt`` and the peer-by-peer rollback -- that
it replayed whenever a peer was dead, repeated, or short.  Until repair
went through that same pass, recovery acquired and undid its holds with
its own code, kept below as :func:`reference_swap`.  This module keeps
both, verbatim, over :class:`ScalarPeer` objects in the dict-of-objects
:class:`~tests.network.reference_directory.PeerDirectory` (departed
peers stay behind as corpses there, and late credits land on them),
with :class:`ScalarNetwork`, the link accounting ``NetworkModel`` did
on those objects.  ``tests/sessions/test_admission_differential.py``
drives them beside the production directory and compares the bits.
Their retry loops ask the injector for each backoff
(``FaultInjector.retry_delay``), as production does.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.resources import ResourceVector
from repro.network.topology import NetworkModel
from repro.services.model import ServiceInstance
from repro.sessions.admission import (
    AdmissionError,
    TransientAdmissionError,
    chain_edges,
)
from tests.network.reference_directory import PeerDirectory

__all__ = [
    "ScalarNetwork",
    "reference_reserve",
    "reference_rollback",
    "reference_swap",
]


class ScalarNetwork:
    """``NetworkModel``'s reservation accounting on :class:`ScalarPeer`
    objects; pair classes come from a production model of the same seed."""

    def __init__(self, peers: PeerDirectory, classes: NetworkModel) -> None:
        self.peers = peers
        self._classes = classes
        self._reserved: Dict[int, Dict[int, float]] = {}

    def pair_reserved(self, a: int, b: int) -> float:
        flows = self._reserved.get(a)
        return flows.get(b, 0.0) if flows else 0.0

    def available_bandwidth(self, src: int, dst: int) -> float:
        if src == dst:
            return float("inf")
        path_avail = self._classes.pair_capacity(src, dst) - self.pair_reserved(
            src, dst
        )
        up = self.peers[src].avail_up
        down = self.peers[dst].avail_down
        return max(0.0, min(path_avail, up, down))

    def reserve(self, src: int, dst: int, bw: float) -> bool:
        if bw < 0:
            raise ValueError(f"negative bandwidth reservation: {bw}")
        if src == dst or bw == 0.0:
            return True
        if self.available_bandwidth(src, dst) + 1e-9 < bw:
            return False
        src_peer, dst_peer = self.peers[src], self.peers[dst]
        if not src_peer.reserve_up(bw):
            return False
        if not dst_peer.reserve_down(bw):
            src_peer.release_up(bw)
            return False
        total = self.pair_reserved(src, dst) + bw
        self._reserved.setdefault(src, {})[dst] = total
        self._reserved.setdefault(dst, {})[src] = total
        return True

    def release(self, src: int, dst: int, bw: float) -> None:
        if src == dst or bw == 0.0:
            return
        remaining = self.pair_reserved(src, dst) - bw
        for a, b in ((src, dst), (dst, src)):
            flows = self._reserved.get(a)
            if remaining > 1e-9:
                self._reserved.setdefault(a, {})[b] = remaining
            elif flows is not None:
                flows.pop(b, None)
                if not flows:
                    del self._reserved[a]
        src_peer = self.peers.get(src)
        if src_peer is not None:
            src_peer.release_up(bw)
        dst_peer = self.peers.get(dst)
        if dst_peer is not None:
            dst_peer.release_down(bw)


def reference_reserve(
    directory: PeerDirectory,
    network: ScalarNetwork,
    instances: Sequence[ServiceInstance],
    peers: Sequence[int],
    user_peer: int,
    injector=None,
) -> None:
    """``reserve_session``'s retry loop around the scalar pass."""
    if len(instances) != len(peers):
        raise ValueError(
            f"{len(instances)} instances but {len(peers)} peers selected"
        )
    attempts = 0
    while True:
        try:
            _reserve_attempt(
                directory, network, instances, peers, user_peer, injector
            )
            return
        except TransientAdmissionError:
            attempts += 1
            if injector.retry_delay(
                "admission", attempts, user_peer=user_peer
            ) is None:
                raise


def _reserve_attempt(
    directory: PeerDirectory,
    network: ScalarNetwork,
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
        reference_rollback(directory, network, held_res, held_bw)
        raise


def reference_rollback(
    directory: PeerDirectory,
    network: ScalarNetwork,
    held_res: Sequence[Tuple[int, ResourceVector]],
    held_bw: Sequence[Tuple[int, int, float]],
    skip_peer: int | None = None,
) -> None:
    """The scalar release sequence: peer by peer, corpses included."""
    for pid, req in held_res:
        if pid == skip_peer:
            continue
        peer = directory.get(pid)
        if peer is not None:
            peer.release(req)
    for src, dst, bw in held_bw:
        network.release(src, dst, bw)


def reference_swap(
    directory: PeerDirectory,
    network: ScalarNetwork,
    session,
    dead_peer: int,
    new_peers: Tuple[int, ...],
    injector=None,
) -> str:
    """Make-before-break: acquire the repaired holds, then drop the
    stale ones.  Returns ``"ok"``, ``"shortage"`` (a ledger genuinely
    ran short) or ``"transient"`` (an injected hiccup worth a
    backoff-retry).  On any failure everything acquired here is
    rolled back and the session's original holds are untouched."""
    instances = session.instances
    old_peers = session.peers
    n = len(old_peers)
    inj = injector

    old_edges = session.connections()
    new_edges = chain_edges(new_peers, session.user_peer, instances)
    changed = [
        (o, w) for o, w in zip(old_edges, new_edges) if o != w
    ]

    # 1. Acquire end-system resources on the replacement peers.
    acquired_res: List[Tuple[int, int]] = []  # (slot, peer)

    def undo_res() -> None:
        for s, pid in acquired_res:
            directory[pid].release(instances[s].resources)

    for slot in range(n):
        if old_peers[slot] != dead_peer:
            continue
        if inj is not None and inj.admission_fails(
            "recovery", peer=new_peers[slot], session_id=session.session_id
        ):
            undo_res()
            return "transient"
        if not directory[new_peers[slot]].reserve(instances[slot].resources):
            undo_res()
            return "shortage"
        acquired_res.append((slot, new_peers[slot]))

    # 2. Acquire the changed connections.
    acquired_bw: List[Tuple[int, int, float]] = []

    def undo_all() -> None:
        for s, t, b in acquired_bw:
            network.release(s, t, b)
        undo_res()

    for _old, (src, dst, bw) in changed:
        if inj is not None and inj.partitioned(src, dst):
            inj.inject("partition", "recovery", src=src, dst=dst)
            undo_all()
            return "transient"
        if not network.reserve(src, dst, bw):
            undo_all()
            return "shortage"
        acquired_bw.append((src, dst, bw))

    # 3. Break: drop the stale connections (the dead peer's own
    # end-system share died with it -- nothing to release there).
    for (src, dst, bw), _new in changed:
        network.release(src, dst, bw)
    return "ok"

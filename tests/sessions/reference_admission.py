"""Admission as one object per peer: the model ``reserve_session`` is held to.

Until peer state lived only in the store's rows, admission kept two
paths: a vectorised block debit over the selected rows, and the scalar
pass below -- ``_reserve_attempt`` and the peer-by-peer rollback -- that
it replayed whenever a peer was dead, repeated, or short.  This module
keeps that scalar pass, verbatim, over :class:`ScalarPeer` objects in
the dict-of-objects :class:`~tests.network.reference_directory.PeerDirectory`
(departed peers stay behind as corpses there, and late credits land on
them), with :class:`ScalarNetwork`, the link accounting ``NetworkModel``
did on those objects.  ``tests/sessions/test_admission_differential.py``
drives it beside the production directory and compares the bits.
Nothing under ``src/`` imports it.
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

__all__ = ["ScalarNetwork", "reference_reserve", "reference_rollback"]


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
    retry=None,
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
            if retry is None or attempts > retry.max_retries:
                injector.retry_exhausted(
                    "admission", attempts=attempts, user_peer=user_peer
                )
                raise
            injector.retry_attempt(
                "admission", attempts, retry.delay(attempts, injector.rng),
                user_peer=user_peer,
            )


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

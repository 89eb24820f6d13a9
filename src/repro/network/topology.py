"""Pairwise network properties and bandwidth reservation accounting.

Paper §4.1: "The end-to-end available network bandwidth between any two
peers is defined as the bottleneck bandwidth along the network path
between two peers, which is initialized randomly as 10M, 500k, 100k, or
56k bps.  The network latency between two peers are also randomly set as
200, 150, 80, 20, or 1 ms [12]."

A literal N x N matrix is 10^8 entries at the paper's 10^4-peer scale, so
pairwise classes are *derived*, not stored: a deterministic BLAKE2b hash
of ``(seed, min(a,b), max(a,b))`` indexes into the class table.  This has
the same marginal distribution as random initialization, is symmetric
and reproducible, and needs no per-pair storage; :class:`NetworkModel`
keeps one fixed-size direct-mapped memo of recently derived classes
(``MEMO_SLOTS`` slots, a few MB at any N) so hot pairs are not re-hashed.

End-to-end *available* bandwidth additionally accounts for consumption:

``beta(a, b) = min(pair_class(a,b) - reserved(a,b), a.avail_up, b.avail_down)``

where per-pair reservations live in a sparse per-peer adjacency (only
pairs with active flows appear) and the access-link residuals live on
the peers.  The access-link terms are our substitution for shared-path
contention -- see DESIGN.md §4.
"""

from __future__ import annotations

import hashlib
from operator import eq
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.network.soa import SoAPeerDirectory

__all__ = [
    "BANDWIDTH_CLASSES",
    "LATENCY_CLASSES_MS",
    "PairwiseClasses",
    "NetworkModel",
]

#: §4.1 bottleneck-bandwidth classes (bps).
BANDWIDTH_CLASSES: Tuple[float, ...] = (10e6, 500e3, 100e3, 56e3)

#: §4.1 latency classes (ms), from [12] (Nettimer measurements).
LATENCY_CLASSES_MS: Tuple[float, ...] = (200.0, 150.0, 80.0, 20.0, 1.0)

#: Default pair-class mix: broadband-leaning, following the Gnutella/
#: Napster population measurements the paper cites ([17]: most peers on
#: cable/DSL or better, a modem tail).  Aligned with BANDWIDTH_CLASSES.
DEFAULT_BANDWIDTH_WEIGHTS: Tuple[float, ...] = (0.35, 0.35, 0.2, 0.1)


class PairwiseClasses:
    """Deterministic, symmetric pairwise class assignment via hashing.

    ``weights`` optionally skews the class distribution (e.g. towards the
    broadband classes measured for real P2P populations [17]); ``None``
    gives the uniform distribution.

    ``class_index`` is a pure function of the unordered pair and keeps no
    state; :class:`NetworkModel` owns the (single, bounded) memo.
    """

    def __init__(
        self,
        seed: int,
        n_classes: int,
        weights: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.seed = int(seed)
        self.n_classes = int(n_classes)
        # Every pair's message is ``b"<seed>:<lo>:<hi>"``: the seed prefix
        # is absorbed once, each pair copies that state and adds its tail.
        self._prefix = hashlib.blake2b(b"%d:" % self.seed, digest_size=4)
        if weights is None:
            self._cumulative: Optional[np.ndarray] = None
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n_classes,) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError(f"bad class weights {weights!r}")
            self._cumulative = np.cumsum(w / w.sum())

    def class_index(self, a: int, b: int) -> int:
        """The class index for the unordered pair ``{a, b}``."""
        lo, hi = (a, b) if a <= b else (b, a)
        return int(self.class_indices((lo,), (hi,))[0])

    def class_indices(self, los: Sequence[int], his: Sequence[int]) -> np.ndarray:
        """:meth:`class_index` of each pair ``los[i] <= his[i]``."""
        fresh = self._prefix.copy
        digests = []
        for pair in zip(los, his):
            h = fresh()
            h.update(b"%d:%d" % pair)
            digests.append(h.digest())
        raws = np.frombuffer(b"".join(digests), "<u4")
        if self._cumulative is None:
            return raws % self.n_classes
        at = self._cumulative.searchsorted(raws / 2.0**32, side="right")
        return np.minimum(at, self.n_classes - 1, out=at)


class NetworkModel:
    """End-to-end bandwidth/latency plus reservation accounting."""

    #: Slots of the pair memo (a prime, so ``key % MEMO_SLOTS`` spreads
    #: the packed keys).  The memo is direct-mapped and fixed-size (8
    #: bytes per slot, 4 MB): a colliding pair overwrites the slot, so it
    #: never holds more than ``MEMO_SLOTS`` pairs, never stops admitting
    #: new ones, and a miss only costs a re-hash.
    MEMO_SLOTS = 524_269

    def __init__(
        self,
        peers: SoAPeerDirectory,
        seed: int = 0,
        bandwidth_classes: Tuple[float, ...] = BANDWIDTH_CLASSES,
        latency_classes: Tuple[float, ...] = LATENCY_CLASSES_MS,
        bandwidth_weights: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.peers = peers
        self.bandwidth_classes = tuple(bandwidth_classes)
        self.latency_classes = tuple(latency_classes)
        if max(len(self.bandwidth_classes), len(self.latency_classes)) > 14:
            raise ValueError("at most 14 bandwidth/latency classes")
        if bandwidth_weights is None:
            bandwidth_weights = DEFAULT_BANDWIDTH_WEIGHTS
        self._bw_hash = PairwiseClasses(
            seed * 2 + 1, len(self.bandwidth_classes), bandwidth_weights
        )
        self._lat_hash = PairwiseClasses(seed * 2 + 2, len(self.latency_classes))
        #: Active reservations as a symmetric sparse adjacency
        #: (peer -> {other peer -> bps}); only pairs with flows appear.
        self._reserved: Dict[int, Dict[int, float]] = {}
        # The pair memo: one int64 per slot, ``(lo << 28 | hi) << 8 | word``
        # (-1 = empty; peer ids stay below 2**28).  The word's low nibble
        # is the bandwidth class, its high nibble the latency class + 1 --
        # 0 until a caller first asks for the latency, which the default
        # Φ never does.  The one-past-the-end class of each table is the
        # local (self) pair: infinite capacity, 0 ms.
        self._memo = np.full(self.MEMO_SLOTS, -1, dtype=np.int64)
        self._capacity_of = np.array(self.bandwidth_classes + (np.inf,))
        self._latency_of = np.array((np.nan,) + self.latency_classes + (0.0,))

    # -- static pairwise properties -----------------------------------------
    def _hash_words(self, los: list, his: list, latency: bool) -> np.ndarray:
        """Memo words of pairs ``los[i] <= his[i]``, derived from scratch."""
        if his and max(his) >> 28:
            raise OverflowError("peer ids must stay below 2**28")
        bw, lat = self._bw_hash, self._lat_hash
        words = bw.class_indices(los, his)
        local = bw.n_classes
        if latency:
            words |= lat.class_indices(los, his) + 1 << 4
            local |= lat.n_classes + 1 << 4
        if any(map(eq, los, his)):  # local pairs get the one-past-the-end classes
            words[np.equal(los, his)] = local
        return words

    def _pair_word(self, a: int, b: int, latency: bool) -> int:
        lo, hi = (int(a), int(b)) if a <= b else (int(b), int(a))
        key = lo << 28 | hi
        slot = key % len(self._memo)
        entry = int(self._memo[slot])
        if entry >> 8 != key or (latency and entry & 0xF0 == 0):
            entry = key << 8 | int(self._hash_words([lo], [hi], latency)[0])
            self._memo[slot] = entry
        return entry & 0xFF

    def _pair_words(
        self, observer: int, targets: np.ndarray, latency: bool
    ) -> np.ndarray:
        """Memo words of ``{observer, t}`` for an int64 id array.

        Everything is bound once per block; the only per-target Python
        is the BLAKE2b of pairs the memo does not hold.
        """
        lo = np.minimum(targets, observer)
        hi = np.maximum(targets, observer)
        keys = lo << 28
        keys |= hi
        slots = keys % len(self._memo)
        entries = self._memo[slots]
        words = entries & 0xFF
        miss = entries >> 8 != keys
        if latency:
            miss |= words < 16
        if np.count_nonzero(miss):
            at = miss.nonzero()[0]
            hashed = self._hash_words(lo[at].tolist(), hi[at].tolist(), latency)
            words[at] = hashed
            self._memo[slots[at]] = keys[at] << 8 | hashed
        return words

    def pair_capacity(self, a: int, b: int) -> float:
        """The bottleneck-class capacity of the path between ``a``, ``b``."""
        return float(self._capacity_of[self._pair_word(a, b, False) & 0xF])

    def latency_ms(self, a: int, b: int) -> float:
        return float(self._latency_of[self._pair_word(a, b, True) >> 4])

    def pair_capacities(self, observer: int, targets: np.ndarray) -> np.ndarray:
        """:meth:`pair_capacity` of ``observer`` to each id in ``targets``."""
        return self._capacity_of[self._pair_words(observer, targets, False) & 0xF]

    def pair_latencies(self, observer: int, targets: np.ndarray) -> np.ndarray:
        """:meth:`latency_ms` of ``observer`` to each id in ``targets``."""
        return self._latency_of[self._pair_words(observer, targets, True) >> 4]

    # -- availability ---------------------------------------------------------
    def pair_reserved(self, a: int, b: int) -> float:
        flows = self._reserved.get(a)
        return flows.get(b, 0.0) if flows else 0.0

    def available_bandwidth(self, src: int, dst: int) -> float:
        """β: end-to-end available bandwidth for a ``src -> dst`` flow."""
        if src == dst:
            return float("inf")
        path_avail = self.pair_capacity(src, dst) - self.pair_reserved(src, dst)
        up = self.peers[src].avail_up
        down = self.peers[dst].avail_down
        return max(0.0, min(path_avail, up, down))

    def available_bandwidth_batch(
        self,
        sources: np.ndarray,
        dst: int,
        uplinks: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """β for many candidate sources towards one destination peer.

        Elementwise :meth:`available_bandwidth` (same subtraction, same
        minima, so bit-identical).  ``uplinks`` replaces the sources'
        live uplink residuals -- the prober passes its epoch snapshots.
        A ``dst`` the directory has never seen imposes no downlink bound.
        """
        betas = self.pair_capacities(dst, sources)
        flows = self._reserved.get(dst)
        if flows:
            for other, bw in flows.items():
                hit = sources == other
                if np.count_nonzero(hit):  # most flows end elsewhere
                    betas[hit] -= bw
        if uplinks is None:
            peers = self.peers
            uplinks = np.fromiter(
                (peers[s].avail_up for s in sources.tolist()),
                np.float64, len(sources),
            )
        np.minimum(betas, uplinks, out=betas)
        dst_peer = self.peers.get(dst)
        if dst_peer is not None:
            np.minimum(betas, dst_peer.avail_down, out=betas)
        np.maximum(betas, 0.0, out=betas)
        betas[sources == dst] = np.inf  # local connection
        return betas

    # -- reservations ---------------------------------------------------------
    def reserve(self, src: int, dst: int, bw: float) -> bool:
        """Reserve ``bw`` bps on ``src -> dst``; atomic, False on shortage."""
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
        """Release a prior reservation (tolerates departed peers)."""
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

    @property
    def n_reserved_pairs(self) -> int:
        return sum(len(flows) for flows in self._reserved.values()) // 2

"""Pairwise network properties and bandwidth reservation accounting.

Paper §4.1: "The end-to-end available network bandwidth between any two
peers is defined as the bottleneck bandwidth along the network path
between two peers, which is initialized randomly as 10M, 500k, 100k, or
56k bps.  The network latency between two peers are also randomly set as
200, 150, 80, 20, or 1 ms [12]."

A literal N x N matrix is 10^8 entries at the paper's 10^4-peer scale, so
pairwise classes are *derived*, not stored: the 64-bit key ``lo << 28 |
hi`` of the unordered pair, XORed with a salt derived from the seed, goes
through SplitMix64's finalizer, and the top 32 bits of the result pick
the class by integer thresholds of the class CDF.  This has the same
marginal distribution as random initialization, is symmetric and
reproducible, needs no per-pair storage, and is cheap enough to derive
for a whole candidate block in numpy every time it is asked for.

End-to-end *available* bandwidth additionally accounts for consumption:

``beta(a, b) = min(pair_class(a,b) - reserved(a,b), a.avail_up, b.avail_down)``

where per-pair reservations live in a sparse per-peer adjacency (only
pairs with active flows appear) and the access-link residuals are the
peer store's rows, debited and credited only by the directory's link
rules.  The access-link terms are our substitution for shared-path
contention -- see DESIGN.md §4.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Tuple

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


_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MIX1_U64, _MIX2_U64 = np.uint64(_MIX1), np.uint64(_MIX2)


def _mix(z: int) -> int:
    """SplitMix64's finalizer of a Python int ``z`` in ``[0, 2**64)``."""
    z = (z ^ z >> 30) * _MIX1 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ z >> 27) * _MIX2 & 0xFFFFFFFFFFFFFFFF
    return z ^ z >> 31


def _mix_block(z: np.ndarray) -> np.ndarray:
    """:func:`_mix` of a ``uint64`` array, in place: the same operators on
    ``uint64`` constants, whose multiplies wrap at 64 bits by themselves,
    so the masks the Python ints need are left out -- bit-identical."""
    t = z >> 30
    z ^= t
    z *= _MIX1_U64
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _MIX2_U64
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


class PairwiseClasses:
    """Deterministic, symmetric pairwise class assignment via hashing.

    ``weights`` optionally skews the class distribution (e.g. towards the
    broadband classes measured for real P2P populations [17]); ``None``
    gives the uniform distribution.  Peer ids must stay below ``2**28``
    (the directory refuses to mint a larger one).  The local pair
    ``{a, a}`` is the one-past-the-end class ``n_classes``.
    """

    def __init__(
        self,
        seed: int,
        n_classes: int,
        weights: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.seed = int(seed)
        self.n_classes = int(n_classes)
        w = np.asarray(
            (1.0,) * n_classes if weights is None else weights, dtype=np.float64
        )
        if w.shape != (n_classes,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError(f"bad class weights {weights!r}")
        # The salt is SplitMix64's first output from state ``seed``.
        self._salt = _mix((self.seed + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        self._salt_u64 = np.uint64(self._salt)
        # A class is the number of cuts at or below a hash's top 32 bits.
        self._cuts = [
            round(c * 2**32) for c in np.cumsum(w / w.sum())[:-1].tolist()
        ]
        self._cut_array = np.array(self._cuts, dtype=np.uint64)

    def class_index(self, a: int, b: int) -> int:
        """The class index for the unordered pair ``{a, b}``."""
        lo, hi = (int(a), int(b)) if a <= b else (int(b), int(a))
        if lo == hi:
            return self.n_classes
        return bisect_right(self._cuts, _mix((lo << 28 | hi) ^ self._salt) >> 32)

    def class_indices(self, a, b) -> np.ndarray:
        """:meth:`class_index` elementwise over ``int64`` ids (``a`` or
        ``b`` may be one id, broadcast against the other's array).

        The key is built and mixed in place, one ``uint64`` array for the
        whole block (:func:`_mix_block`)."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo << 28
        keys |= hi
        keys = keys.view(np.uint64)
        keys ^= self._salt_u64
        keys = _mix_block(keys)
        keys >>= 32
        at = self._cut_array.searchsorted(keys, side="right")
        at[lo == hi] = self.n_classes
        return at


class NetworkModel:
    """End-to-end bandwidth/latency plus reservation accounting."""

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
        if bandwidth_weights is None:
            bandwidth_weights = DEFAULT_BANDWIDTH_WEIGHTS
        self._bw_hash = PairwiseClasses(
            seed * 2 + 1, len(self.bandwidth_classes), bandwidth_weights
        )
        self._lat_hash = PairwiseClasses(seed * 2 + 2, len(self.latency_classes))
        #: Active reservations as a symmetric sparse adjacency
        #: (peer -> {other peer -> bps}); only pairs with flows appear.
        self._reserved: Dict[int, Dict[int, float]] = {}
        # The one-past-the-end class of each table is the local (self)
        # pair: infinite capacity, 0 ms.
        self._capacity_of = np.array(self.bandwidth_classes + (np.inf,))
        self._latency_of = np.array(self.latency_classes + (0.0,))

    # -- static pairwise properties -----------------------------------------
    def pair_capacity(self, a: int, b: int) -> float:
        """The bottleneck-class capacity of the path between ``a``, ``b``."""
        return float(self._capacity_of[self._bw_hash.class_index(a, b)])

    def latency_ms(self, a: int, b: int) -> float:
        return float(self._latency_of[self._lat_hash.class_index(a, b)])

    def pair_capacities(self, observer: int, targets: np.ndarray) -> np.ndarray:
        """:meth:`pair_capacity` of ``observer`` to each id in ``targets``."""
        return self._capacity_of[self._bw_hash.class_indices(observer, targets)]

    def pair_latencies(self, observer: int, targets: np.ndarray) -> np.ndarray:
        """:meth:`latency_ms` of ``observer`` to each id in ``targets``."""
        return self._latency_of[self._lat_hash.class_indices(observer, targets)]

    # -- availability ---------------------------------------------------------
    def pair_reserved(self, a: int, b: int) -> float:
        flows = self._reserved.get(a)
        return flows.get(b, 0.0) if flows else 0.0

    def available_bandwidth(self, src: int, dst: int) -> float:
        """β: end-to-end available bandwidth for a ``src -> dst`` flow
        (0 when either end is not alive)."""
        if src == dst:
            return float("inf")
        up_row, down_row = self.peers.row_of(src), self.peers.row_of(dst)
        if up_row < 0 or down_row < 0:
            return 0.0
        path_avail = self.pair_capacity(src, dst) - self.pair_reserved(src, dst)
        store = self.peers.store
        up = store.avail_up.item(up_row)
        down = store.avail_down.item(down_row)
        return max(0.0, min(path_avail, up, down))

    def available_bandwidth_batch(
        self, sources: np.ndarray, dst: int, uplinks: np.ndarray
    ) -> np.ndarray:
        """β for many candidate sources towards one destination peer.

        Elementwise :meth:`available_bandwidth` (same subtraction, same
        minima, so bit-identical), with ``uplinks`` in place of the
        sources' live uplink residuals -- the prober passes its epoch
        snapshots.  A ``dst`` that is not alive imposes no downlink bound.
        """
        betas = self.pair_capacities(dst, sources)
        flows = self._reserved.get(dst)
        if flows:
            for other, bw in flows.items():
                hit = sources == other
                if np.count_nonzero(hit):  # most flows end elsewhere
                    betas[hit] -= bw
        np.minimum(betas, uplinks, out=betas)
        dst_row = self.peers.row_of(dst)
        if dst_row >= 0:
            np.minimum(betas, self.peers.store.avail_down[dst_row], out=betas)
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
        if not self.peers.reserve_link(src, dst, bw):
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
        self.peers.release_link(src, dst, bw)

    @property
    def n_reserved_pairs(self) -> int:
        return sum(len(flows) for flows in self._reserved.values()) // 2

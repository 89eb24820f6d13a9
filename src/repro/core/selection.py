"""Dynamic peer selection: the Φ metric and hop-by-hop selection (§3.3).

After QCS has fixed *which* service instances make up the path, each
instance must be mapped onto one of the many peers that host a replica of
it.  The paper's design decisions, all implemented here:

* **Distributed, hop-by-hop** -- selection proceeds in the *reverse*
  direction of the aggregation flow: the user's host picks the peer for
  the user-adjacent instance; that peer picks the peer for the preceding
  instance; and so on (Fig. 4).  Every step uses only the performance
  information *locally maintained at the selecting peer* (its probed
  neighbor set, bounded by the probing budget ``M``).
* **Uptime filter** -- a candidate qualifies only if its uptime (time
  connected to the grid so far) is at least the application's session
  duration; this is the paper's heuristic predictor of peer longevity
  (footnote 4).
* **Φ metric** (Eq. 4-5) -- among qualifying candidates with known
  performance information, pick the one maximizing

  .. math:: Φ = \\sum_{i=1}^{m} ω_i \\frac{ra_i}{r_i} + ω_{m+1} \\frac{β}{b}

  where ``ra_i`` is the candidate's availability of resource ``i``,
  ``r_i`` the instance's requirement, ``β`` the end-to-end available
  bandwidth from the candidate to the selecting peer and ``b`` the
  instance's bandwidth requirement.  Weights are non-negative and sum
  to 1.
* **Random fallback** -- if the selecting peer has no performance
  information about any candidate, it picks uniformly at random
  ("If the candidate peers' performance information is not available,
  the peer selection falls back to a random policy").

Scoring is vectorized with numpy: a selection step evaluates all
candidates' Φ values in one shot, which matters at the 10⁴-peer scale of
the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.resources import ResourceVector

__all__ = [
    "ObservedBlock", "PeerInfo", "PerformanceView", "PhiWeights",
    "PeerSelector", "SelectionOutcome",
]


@dataclass(frozen=True)
class PeerInfo:
    """A snapshot of one peer's state as observed by a prober.

    ``availability`` uses the same resource dimensions/order as instance
    requirement vectors; ``bandwidth_to_observer`` is the end-to-end
    available bandwidth β from the observed peer towards the observer;
    ``uptime`` is how long the peer has been connected (minutes);
    ``latency`` the application-level connection latency (ms).
    """

    peer_id: int
    availability: ResourceVector
    bandwidth_to_observer: float
    uptime: float
    latency: float


#: One observer's array view of a candidate list, as returned by a
#: view's ``observe_block``: ``(known, avail, betas, uptimes,
#: latencies)`` -- the positions in the candidate list the observer has
#: information about (ascending), and aligned with them the ``(k, m)``
#: availability block, β, uptime and (only when asked for) latency.
#: ``known`` is what ``resolve_selection_hops`` reported for the hop
#: (``select_hop(known=...)``) or a table lookup, minus the departed.
ObservedBlock = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]
]


class PerformanceView(Protocol):
    """What a selecting peer knows about other peers.

    Implemented by :class:`repro.probing.prober.ProbingService`; also by
    simple dict-backed fakes in tests.
    """

    def observe_block(
        self,
        observer: int,
        targets: Sequence[int],
        latency: bool = False,
        known: Optional[np.ndarray] = None,
    ) -> ObservedBlock:
        """The observer's (possibly stale) info about the targets inside
        its probed neighbor set; latencies only when asked for.  ``known``:
        the positions a ``resolve_selection_hops`` just reported."""
        ...


class PhiWeights:
    """The configurable importance weights ``ω_1..ω_{m+1}`` of Eq. 4-5.

    An optional **latency term** extends Eq. 4 (the paper maintains
    latency as probed performance information but does not use it in Φ;
    see DESIGN.md §4b).  With ``latency_weight = ω_L > 0`` the metric
    becomes::

        Φ' = Σ ω_i (ra_i/r_i) + ω_{m+1} (β/b) + ω_L (L_ref / latency)

    where ``L_ref`` normalizes so that an ``L_ref``-ms candidate scores 1
    on the term, like the other ratio terms.  All weights (including
    ``ω_L``) are non-negative and sum to 1.
    """

    __slots__ = (
        "resource_names",
        "weights",
        "bandwidth_weight",
        "latency_weight",
        "latency_ref_ms",
    )

    def __init__(
        self,
        resource_names: Sequence[str],
        resource_weights: Sequence[float],
        bandwidth_weight: float,
        latency_weight: float = 0.0,
        latency_ref_ms: float = 80.0,
        normalize: bool = False,
    ) -> None:
        self.resource_names = tuple(resource_names)
        w = np.asarray(list(resource_weights), dtype=np.float64)
        wb = float(bandwidth_weight)
        wl = float(latency_weight)
        if w.shape != (len(self.resource_names),):
            raise ValueError("one weight per resource type is required")
        if np.any(w < 0) or wb < 0 or wl < 0:
            raise ValueError("Φ weights must be non-negative (Eq. 5)")
        if latency_ref_ms <= 0:
            raise ValueError("latency_ref_ms must be positive")
        total = float(w.sum() + wb + wl)
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize all-zero weights")
            w, wb, wl = w / total, wb / total, wl / total
        elif abs(total - 1.0) > 1e-9:
            raise ValueError(f"Φ weights must sum to 1 (Eq. 5); got {total}")
        self.weights = w
        self.bandwidth_weight = wb
        self.latency_weight = wl
        self.latency_ref_ms = float(latency_ref_ms)

    @classmethod
    def uniform(cls, resource_names: Sequence[str]) -> "PhiWeights":
        """Uniform importance weights (the paper's evaluation setting)."""
        m = len(resource_names)
        w = np.full(m + 1, 1.0 / (m + 1))
        return cls(resource_names, w[:m], w[m])

    @classmethod
    def latency_aware(
        cls,
        resource_names: Sequence[str],
        latency_weight: float = 0.25,
        latency_ref_ms: float = 80.0,
    ) -> "PhiWeights":
        """Uniform weights over resources+bandwidth, plus a latency term."""
        m = len(resource_names)
        rest = (1.0 - latency_weight) / (m + 1)
        return cls(
            resource_names,
            np.full(m, rest),
            rest,
            latency_weight=latency_weight,
            latency_ref_ms=latency_ref_ms,
        )

    def _latency_term(self, latency_ms: Any) -> Any:
        ratio = self.latency_ref_ms / np.maximum(latency_ms, 1e-3)
        return np.minimum(ratio, _RATIO_CAP)

    def phi(
        self,
        availability: ResourceVector,
        requirement: ResourceVector,
        beta: float,
        bandwidth_req: float,
        latency_ms: float = 0.0,
    ) -> float:
        """Eq. 4 for a single candidate (plus the optional latency term)."""
        if availability.names != self.resource_names:
            raise ValueError("availability dimensions do not match Φ weights")
        ratios = availability.ratio_to(requirement)
        bw_ratio = beta / bandwidth_req if bandwidth_req > 0 else np.inf
        ratios = np.minimum(ratios, _RATIO_CAP)
        bw_ratio = min(bw_ratio, _RATIO_CAP)
        value = float(
            np.dot(self.weights, ratios) + self.bandwidth_weight * bw_ratio
        )
        if self.latency_weight > 0:
            value += self.latency_weight * float(self._latency_term(latency_ms))
        return value

    def phi_batch(
        self,
        availability: np.ndarray,
        requirement: np.ndarray,
        betas: np.ndarray,
        bandwidth_req: float,
        latencies_ms: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized Eq. 4 over ``n`` candidates.

        Parameters
        ----------
        availability: ``(n, m)`` array of candidate resource availability.
        requirement: ``(m,)`` instance requirement (entries may be 0).
        betas: ``(n,)`` available bandwidth from each candidate.
        bandwidth_req: scalar ``b``.
        latencies_ms: ``(n,)`` candidate->selector latencies (only used
            when the profile carries a latency weight).
        """
        if requirement.min() > 0:
            ratios = availability / requirement
        else:
            # divide(out=CAP, where=req>0) is bitwise np.where(req>0, a/r, CAP)
            # without materializing the infinities (or the errstate guard).
            ratios = np.full_like(availability, _RATIO_CAP)
            np.divide(availability, requirement, out=ratios, where=requirement > 0)
        np.minimum(ratios, _RATIO_CAP, out=ratios)
        if bandwidth_req > 0:
            bw = np.minimum(betas / bandwidth_req, _RATIO_CAP)
        else:
            bw = np.full_like(betas, _RATIO_CAP)
        out = ratios @ self.weights + self.bandwidth_weight * bw
        if self.latency_weight > 0:
            if latencies_ms is None:
                raise ValueError(
                    "latency-aware Φ needs candidate latencies"
                )
            out = out + self.latency_weight * self._latency_term(latencies_ms)
        return out


#: Availability/requirement ratios are capped so a single zero-requirement
#: dimension cannot produce an infinite Φ and drown out every other term.
_RATIO_CAP = 1e6


@dataclass(frozen=True, slots=True)
class SelectionOutcome:
    """The result of one hop's selection step.

    ``peer_id`` is ``None`` when no candidate qualified.  ``random_fallback``
    records whether the step had to use the random policy (no performance
    information available at the selecting peer).
    """

    peer_id: Optional[int]
    random_fallback: bool
    n_candidates: int
    n_known: int
    phi: Optional[float] = None


class PeerSelector:
    """Implements one peer-selection step of the QSA model.

    Parameters
    ----------
    view:
        The performance-information provider (the probing subsystem).
    weights:
        Φ weights.
    uptime_filter:
        Whether to require candidate uptime >= session duration (QSA's
        churn-tolerance heuristic; the ablation benches switch this off).

    The resource match is not optional: known availability must cover
    the requirement, and β the bandwidth, before Φ ranks a candidate
    (the paper's "match between ... the candidate peer's resource
    availability and the service instance's resource requirements").
    """

    #: Optional :class:`repro.telemetry.Telemetry`; set by the grid when
    #: telemetry is enabled (selection events + fallback counters).
    telemetry = None

    def __init__(
        self,
        view: PerformanceView,
        weights: PhiWeights,
        uptime_filter: bool = True,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.view = view
        self.weights = weights
        self.uptime_filter = uptime_filter
        if telemetry is not None:
            self.telemetry = telemetry

    def select_hop(
        self,
        selecting_peer: int,
        candidates: Sequence[int],
        requirement: ResourceVector,
        bandwidth_req: float,
        session_duration: float,
        rng: np.random.Generator,
        known: Optional[np.ndarray] = None,
    ) -> SelectionOutcome:
        """Choose the next-hop peer from ``candidates``.

        Implements, in order: the local-knowledge restriction, the uptime
        and feasibility matches, Φ ranking, and the random fallback.
        ``known``: what the view's ``resolve_selection_hops`` returned for
        these candidates at ``selecting_peer`` just now, for ``observe_block``.
        """
        tel = self.telemetry
        latency = self.weights.latency_weight > 0
        if tel is None:
            return self._select_hop_block(
                candidates, requirement, bandwidth_req, session_duration, rng,
                self.view.observe_block(selecting_peer, candidates, latency, known),
            )
        with tel.tracer.span("selection.hop", selecting_peer=selecting_peer):
            outcome = self._select_hop_block(
                candidates, requirement, bandwidth_req, session_duration, rng,
                self.view.observe_block(selecting_peer, candidates, latency, known),
            )
        m = tel.metrics
        m.counter("selection.steps").inc()
        if outcome.peer_id is None:
            m.counter("selection.no_candidate").inc()
        elif outcome.random_fallback:
            m.counter("selection.random_fallback").inc()
        tel.bus.emit(
            "selection.hop",
            selecting_peer=selecting_peer,
            chosen=outcome.peer_id,
            n_candidates=outcome.n_candidates,
            n_known=outcome.n_known,
            fallback=outcome.random_fallback,
            phi=outcome.phi,
        )
        return outcome

    def _select_hop_block(
        self,
        candidates: Sequence[int],
        requirement: ResourceVector,
        bandwidth_req: float,
        session_duration: float,
        rng: np.random.Generator,
        block: ObservedBlock,
    ) -> SelectionOutcome:
        """One selection step over an ``observe_block`` array view.

        The uptime/covers/β filters are masked reductions over the block
        and the Φ ranking a single ``phi_batch`` over the qualified
        sub-block.  With nothing known the pick is uniform over the
        candidates; with everything known filtered out it is uniform over
        the unknown ones if there are any, else the filters are given up
        and every known candidate is ranked by Φ (a peer with the
        least-bad Φ still beats outright failure).  The scalar
        transcription it is held to is ``tests/core/test_selection_block.py``.
        """
        n_candidates = len(candidates)
        if n_candidates == 0:
            return SelectionOutcome(None, False, 0, 0)
        kpos, avail, betas, uptimes, latencies = block
        n_known = len(kpos)
        if n_known == 0:
            pick = int(rng.integers(n_candidates))
            return SelectionOutcome(candidates[pick], True, n_candidates, 0)

        qual = (avail >= requirement.values).all(axis=1)
        qual &= betas >= bandwidth_req
        if self.uptime_filter:
            qual &= uptimes >= session_duration
        qidx = qual.nonzero()[0]

        if len(qidx) == 0:
            known_ids = {candidates[i] for i in kpos}
            unknown = [pid for pid in candidates if pid not in known_ids]
            if unknown:
                pick = int(rng.integers(len(unknown)))
                return SelectionOutcome(
                    unknown[pick], True, n_candidates, n_known
                )
            qidx = np.arange(n_known)

        if len(qidx) == 1:
            j = qidx[0]
            availability = ResourceVector.__new__(ResourceVector)
            availability.names = requirement.names
            availability.values = avail[j]
            phi = self.weights.phi(
                availability, requirement, betas[j], bandwidth_req,
                latency_ms=0.0 if latencies is None else latencies[j],
            )
            return SelectionOutcome(
                candidates[kpos[j]], False, n_candidates, n_known, phi
            )

        scores = self.weights.phi_batch(
            avail.take(qidx, axis=0), requirement.values, betas[qidx],
            bandwidth_req,
            latencies_ms=None if latencies is None else latencies[qidx],
        )
        best = int(scores.argmax())
        return SelectionOutcome(
            candidates[kpos[qidx[best]]], False, n_candidates, n_known,
            float(scores[best]),
        )

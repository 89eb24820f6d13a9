"""The QCS kernel: §3.2 as numpy, vectorized and incremental.

The Fig. 3 consistency graph as per-node adjacency lists, relaxed by a
python Dijkstra / dp sweep, is ``O(K V^2)`` interpreted python per
request (that transcription is ``tests/core/reference_kernels.py``).
This module computes the *same function* as batched array operations:

* the Eq. 1 ``Qout ⊇ Qin`` consistency checks between two services'
  instance populations become one boolean **adjacency matrix** per
  service pair, filled by :func:`~repro.core.qos.satisfies_matrix` --
  the scalar relation asked once per distinct (offered value, required
  value) of each QoS dimension, not once per instance pair -- and
  *patched* with only the new rows/columns when churn/admission
  introduces instances the index has not seen (never rebuilt wholesale);
* the Def. 3.1 sink→source relaxation becomes, per layer, one masked
  outer add + ``argmin`` row reduction over the scalar
  :class:`~repro.core.resources.WeightProfile` scores.

Exactness is the contract (docs/performance.md): for identical inputs
the kernel returns a :class:`~repro.core.composition.ComposedPath` that
is **bit-identical** to the reference kernels -- same instances, same
float score, same aggregated tuple -- and emits the same telemetry
spans/events with the same values.  Two properties make that literal
instead of approximate:

1. every scalar score is produced by the same
   ``WeightProfile.score(ResourceTuple(...))`` call the reference graph
   makes, and the relaxation performs the same IEEE adds in the
   same order (``dist[i] + w[j]`` per candidate edge, min taken over
   the *summed* values, first-index tie-breaking exactly like the
   reference DP's strict-improvement scan);
2. the chosen path's total is re-accumulated through the identical
   ``zero + e1 + e2 + ...`` :class:`ResourceTuple` chain.

The equivalence property suite
(``tests/core/test_composition_equivalence.py``) and the whole-run
differentials under ``tests/perf/`` (reference kernel patched in for
``QSAAggregator.compose``) hold it to that bar; optimality is
``tests/core/reference_bruteforce.py``'s.

Incremental maintenance
-----------------------
:class:`ConsistencyIndex` keys everything by ``instance_id`` (service
records are immutable after catalog populate).  Each service's instance
*universe* only ever grows; pair matrices record the size they were
filled against and patch only the new rows/columns.  The user's sink
row (layer-0 outputs against the user's QoS vector) is a handful of
clause checks plus one gather, asked once per (candidate set, user QoS).
Departures need no patching at all: a request's candidate sets select
matrix rows/columns by index, so absent instances are simply never
selected.  ``ConsistencyIndex.eq1_evaluations`` counts the scalar clause
evaluations all of this spent (the work the paper's ``O(K V^2)`` bounds).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.composition import ComposedPath, CompositionError
from repro.core.qos import QoSVector, satisfies_matrix_counted
from repro.core.resources import ResourceTuple, WeightProfile
from repro.services.model import AbstractServicePath, ServiceInstance
from repro.telemetry.spans import NULL_TRACER

__all__ = ["CacheStats", "ConsistencyIndex", "VectorizedComposer", "compose_qcs"]


class CacheStats:
    """Hit/miss tallies of the plan LRU: a hit is a compose that sliced,
    gathered and relaxed nothing (counters only: a hit emits no event,
    so a seeded run's telemetry export does not depend on it)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


class _Universe:
    """One service's known instance population, in admission order.

    ``version`` counts admissions; pair matrices record the version
    they were computed against and patch the difference.
    """

    __slots__ = (
        "service", "ids", "instances", "index", "scores", "costs",
        "qins", "qouts", "_keyed", "_keyed_ids",
    )

    def __init__(self, service: str) -> None:
        self.service = service
        self.ids: List[str] = []
        self.instances: List[ServiceInstance] = []
        #: instance_id -> stable row/column index.
        self.index: Dict[str, int] = {}
        #: Scalar Def. 3.1 scores, aligned with ``instances`` (computed
        #: by the same WeightProfile.score call as the reference kernel).
        self.scores: List[float] = []
        #: Per-instance edge cost tuples ``(R, b)``, aligned.
        self.costs: List[ResourceTuple] = []
        #: Per-instance ``Qin`` / ``Qout`` vectors, aligned (the
        #: populations :func:`satisfies_matrix` runs over).
        self.qins: List[QoSVector] = []
        self.qouts: List[QoSVector] = []
        #: The last candidate tuple keyed and its ids (see ``ids_of``).
        self._keyed: Tuple[ServiceInstance, ...] = ()
        self._keyed_ids: Tuple[str, ...] = ()

    @property
    def version(self) -> int:
        return len(self.ids)

    def ids_of(self, cands: Tuple[ServiceInstance, ...]) -> Tuple[str, ...]:
        """The plan-key part of a candidate tuple, built once per tuple
        *object*: the registry hands back one immutable record until
        membership replaces it, and holding the reference keeps ``is``
        sound (a list's fresh ``tuple()`` copy is re-read every call)."""
        if cands is not self._keyed:
            self._keyed = cands
            self._keyed_ids = tuple(inst.instance_id for inst in cands)
        return self._keyed_ids

    def admit(self, inst: ServiceInstance, weights: WeightProfile) -> int:
        """Register one unseen instance; returns its index."""
        i = len(self.ids)
        self.index[inst.instance_id] = i
        self.ids.append(inst.instance_id)
        self.instances.append(inst)
        cost = ResourceTuple(inst.resources, inst.bandwidth)
        self.scores.append(weights.score(cost))
        self.costs.append(cost)
        self.qins.append(inst.qin)
        self.qouts.append(inst.qout)
        return i


class _PairMatrix:
    """The Eq. 1 adjacency between two universes, patched incrementally.

    ``matrix[i, j]`` answers "may predecessor ``pred.instances[j]`` feed
    current-layer ``cur.instances[i]``" -- i.e.
    ``satisfies(pred[j].qout, cur[i].qin)``.  ``sync`` extends the
    matrix by exactly the rows/columns admitted since the last call.
    """

    __slots__ = ("matrix", "n_cur", "n_pred", "patched_rows", "evaluations")

    def __init__(self) -> None:
        self.matrix = np.zeros((0, 0), dtype=bool)
        self.n_cur = 0
        self.n_pred = 0
        self.patched_rows = 0
        #: Scalar Eq. 1 clause evaluations spent filling this matrix.
        self.evaluations = 0

    def sync(self, cur: _Universe, pred: _Universe) -> np.ndarray:
        nc, np_ = cur.version, pred.version
        n_cur, n_pred = self.n_cur, self.n_pred
        if nc == n_cur and np_ == n_pred:
            return self.matrix
        grown = np.zeros((nc, np_), dtype=bool)
        grown[:n_cur, :n_pred] = self.matrix
        # New current-layer rows against every predecessor, then the new
        # predecessor columns for the pre-existing rows.
        grown[n_cur:], rows = satisfies_matrix_counted(
            pred.qouts, cur.qins[n_cur:]
        )
        grown[:n_cur, n_pred:], cols = satisfies_matrix_counted(
            pred.qouts[n_pred:], cur.qins[:n_cur]
        )
        self.evaluations += rows + cols
        self.patched_rows += (nc - n_cur) + (np_ - n_pred)
        self.matrix = grown
        self.n_cur, self.n_pred = nc, np_
        return self.matrix


@dataclass
class _Plan:
    """The sliced consistency graph of one candidate set, minus its sink.

    ``layers[0]`` is the user-adjacent service's candidates (reference
    layer 1), ``layers[-1]`` the source service's.  ``adjacency[t]`` is
    the boolean matrix from ``layers[t]`` rows to ``layers[t + 1]``
    predecessor columns.  The user's QoS only adds the sink's edges
    (``sink_universe`` rows ``sink_rows`` against the requirement), so
    ``outcomes`` holds, per ``user_qos.as_tuple()`` asked here, that
    request's edge count and its :class:`ComposedPath` (``None``: no
    consistent path) -- constants, since instance records are immutable.
    """

    layers: List[Tuple[ServiceInstance, ...]]
    weights: List[np.ndarray]
    costs: List[List[ResourceTuple]]
    adjacency: List[np.ndarray]
    sink_universe: _Universe
    sink_rows: np.ndarray
    n_nodes: int
    n_adjacent: int
    outcomes: Dict[Hashable, Tuple[int, Optional[ComposedPath]]]


class ConsistencyIndex:
    """Incrementally maintained candidate matrices over the catalog.

    Owns the per-service universes and the pairwise adjacency matrices.
    Everything is keyed by ``instance_id`` and assumes service records
    are immutable after catalog populate; universes only ever *grow* --
    departures are handled by requests simply not selecting the absent
    rows.
    """

    def __init__(self, weights: WeightProfile) -> None:
        self.weights = weights
        self._universes: Dict[str, _Universe] = {}
        self._pairs: Dict[Tuple[str, str], _PairMatrix] = {}
        self._sink_evaluations = 0

    # -- universe maintenance ------------------------------------------------
    def universe(self, service: str) -> _Universe:
        uni = self._universes.get(service)
        if uni is None:
            uni = self._universes[service] = _Universe(service)
        return uni

    def admit_candidates(
        self, service: str, candidates: Sequence[ServiceInstance]
    ) -> _Universe:
        """Register any unseen candidate instances (incremental patch)."""
        uni = self.universe(service)
        index = uni.index
        for inst in candidates:
            if inst.instance_id not in index:
                uni.admit(inst, self.weights)
        return uni

    def pair_matrix(self, cur: _Universe, pred: _Universe) -> np.ndarray:
        """The synced adjacency matrix between two universes."""
        key = (cur.service, pred.service)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _PairMatrix()
        return pair.sync(cur, pred)

    def sink_row(self, uni: _Universe, user_qos: QoSVector) -> np.ndarray:
        """Boolean "satisfies the user requirement" row over a universe."""
        matrix, evaluations = satisfies_matrix_counted(uni.qouts, (user_qos,))
        self._sink_evaluations += evaluations
        return matrix[0]

    @property
    def eq1_evaluations(self) -> int:
        """Scalar Eq. 1 clause evaluations spent so far (monotone): one
        per distinct (offered value, required value) of a dimension each
        time a pair matrix is filled/patched or a sink row computed."""
        return self._sink_evaluations + sum(
            p.evaluations for p in self._pairs.values()
        )

    @property
    def patched_rows(self) -> int:
        """Total adjacency rows/columns patched in (never rebuilt)."""
        return sum(p.patched_rows for p in self._pairs.values())

    @property
    def n_pair_matrices(self) -> int:
        return len(self._pairs)


class VectorizedComposer:
    """QCS over a :class:`ConsistencyIndex`, with a composition-plan LRU.

    A *plan* is the slice of the index one candidate set selects:
    candidate index arrays, adjacency sub-matrices and score vectors --
    the Fig. 3 graph before the user's requirement is attached at the
    sink.  Candidate sets are stable between membership events, so plans
    are memoized under ``(services, per-layer candidate id tuples)`` and
    each plan memoizes its outcome per user QoS vector; together the two
    keys capture the full semantic input, making staleness impossible by
    construction: any churn/admission that changes a candidate set
    changes the key.
    """

    #: LRU cap for memoized composition plans, and the cap on the user
    #: QoS outcomes one plan keeps (oldest dropped; re-solved if re-asked).
    PLAN_CACHE_CAP = 512

    def __init__(self, weights: WeightProfile) -> None:
        self.weights = weights
        self.index = ConsistencyIndex(weights)
        #: Least recently used first.
        self._plans: OrderedDict[Hashable, _Plan] = OrderedDict()
        self.plan_stats = CacheStats()

    def invalidate_plans(self) -> None:
        """Drop every memoized plan (the incremental index is kept).

        Plans can never go stale -- their key captures the full semantic
        input -- so this exists for memory pressure and for benchmarks
        that want to time the plan-miss path; hit/miss stats survive.
        """
        self._plans.clear()

    # -- plan construction ---------------------------------------------------
    def _build_plan(
        self,
        path: AbstractServicePath,
        layer_candidates: List[Tuple[ServiceInstance, ...]],
    ) -> _Plan:
        index = self.index
        weights_per_layer: List[np.ndarray] = []
        costs_per_layer: List[List[ResourceTuple]] = []
        universes: List[_Universe] = []
        idx_arrays: List[np.ndarray] = []

        for service, cands in zip(path.reversed(), layer_candidates):
            uni = index.admit_candidates(service, cands)
            rows = [uni.index[inst.instance_id] for inst in cands]
            weights_per_layer.append(
                np.array([uni.scores[i] for i in rows], dtype=np.float64)
            )
            costs_per_layer.append([uni.costs[i] for i in rows])
            universes.append(uni)
            idx_arrays.append(np.asarray(rows, dtype=np.intp))

        adjacency = [
            index.pair_matrix(universes[t], universes[t + 1])
            .take(idx_arrays[t], axis=0).take(idx_arrays[t + 1], axis=1)
            for t in range(len(universes) - 1)
        ]
        return _Plan(
            layers=layer_candidates,
            weights=weights_per_layer,
            costs=costs_per_layer,
            adjacency=adjacency,
            sink_universe=universes[0],
            sink_rows=idx_arrays[0],
            n_nodes=1 + sum(len(layer) for layer in layer_candidates),
            n_adjacent=sum(int(a.sum()) for a in adjacency),
            outcomes={},
        )

    def _plan_for(
        self,
        path: AbstractServicePath,
        candidates: Mapping[str, Sequence[ServiceInstance]],
    ) -> _Plan:
        universe = self.index.universe
        layer_candidates: List[Tuple[ServiceInstance, ...]] = []
        key_parts: List[Hashable] = [path.services]
        for service in path.reversed():
            cands = tuple(candidates.get(service, ()))
            if not cands:
                raise CompositionError(
                    f"no candidate instances discovered for service {service!r}"
                )
            layer_candidates.append(cands)
            key_parts.append(universe(service).ids_of(cands))
        key = tuple(key_parts)
        plans = self._plans
        plan = plans.get(key)
        if plan is None:
            plan = self._build_plan(path, layer_candidates)
            if len(plans) >= self.PLAN_CACHE_CAP:
                plans.popitem(last=False)
            plans[key] = plan
        else:
            plans.move_to_end(key)
        return plan

    # -- the relaxation ------------------------------------------------------
    def _solve(self, plan: _Plan, sink_mask: np.ndarray) -> Optional[ComposedPath]:
        """Sink→source sweep from one sink row; the best path, or None.

        Performs the identical IEEE adds as the reference DP (``dist[i]
        + w[j]`` per consistent edge, minimum over the summed values)
        and the identical first-index tie-breaking (``np.argmin``
        returns the first occurrence of the minimum; the reference scan
        only replaces on strict improvement).
        """
        dist = np.where(sink_mask, 0.0 + plan.weights[0], np.inf)
        preds: List[np.ndarray] = []
        for t in range(len(plan.layers) - 1):
            cand = dist[:, None] + plan.weights[t + 1][None, :]
            masked = np.where(plan.adjacency[t], cand, np.inf)
            best = np.argmin(masked, axis=0)
            dist = masked[best, np.arange(masked.shape[1])]
            preds.append(best)
        j = int(np.argmin(dist)) if dist.size else 0
        if not dist.size or not np.isfinite(dist[j]):
            return None
        score = float(dist[j])
        indices = [j]
        for best in reversed(preds):
            indices.insert(0, int(best[indices[0]]))
        total = ResourceTuple.zero(self.weights.resource_names)
        for costs, choice in zip(plan.costs, indices):
            total = total + costs[choice]
        chosen = [layer[i] for layer, i in zip(plan.layers, indices)]
        return ComposedPath(tuple(reversed(chosen)), total=total, score=score)

    # -- public API ----------------------------------------------------------
    def compose(
        self,
        path: AbstractServicePath,
        candidates: Mapping[str, Sequence[ServiceInstance]],
        user_qos: QoSVector,
        telemetry: Optional[Any] = None,
    ) -> ComposedPath:
        """Run QCS and return the QoS-consistent, resource-shortest path.

        Raises :class:`CompositionError` for missing candidates or an
        infeasible requirement.  ``telemetry`` (an optional
        :class:`repro.telemetry.Telemetry`) instruments the graph-build
        and solve phases (``qcs.compose`` / ``qcs.graph_build`` /
        ``qcs.solve`` spans, counters, ``qcs.composed`` / ``qcs.failed``
        events) -- the same stream the reference kernels emit.
        """
        tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
        with tracer.span("qcs.compose", application=path.application):
            with tracer.span("qcs.graph_build"):
                plan = self._plan_for(path, candidates)
                qos_key = user_qos.as_tuple()
                outcome = plan.outcomes.get(qos_key)
                if outcome is None:
                    self.plan_stats.misses += 1
                    sink_mask = self.index.sink_row(
                        plan.sink_universe, user_qos
                    )[plan.sink_rows]
                    n_edges = int(sink_mask.sum()) + plan.n_adjacent
                else:
                    self.plan_stats.hits += 1
                    n_edges, composed = outcome
            if telemetry is not None:
                m = telemetry.metrics
                m.counter("qcs.compositions").inc()
                m.counter("qcs.graph_nodes").inc(plan.n_nodes)
                m.counter("qcs.graph_edges").inc(n_edges)
            with tracer.span("qcs.solve"):
                if outcome is None:
                    composed = self._solve(plan, sink_mask)
                    if len(plan.outcomes) >= self.PLAN_CACHE_CAP:
                        del plan.outcomes[next(iter(plan.outcomes))]
                    plan.outcomes[qos_key] = n_edges, composed
        if composed is None:
            if telemetry is not None:
                telemetry.metrics.counter("qcs.no_path").inc()
                telemetry.bus.emit(
                    "qcs.failed",
                    application=path.application,
                    n_nodes=plan.n_nodes,
                    n_edges=n_edges,
                )
            raise CompositionError(
                f"no QoS-consistent service path for application "
                f"{path.application!r} at requirement {user_qos!r}"
            )
        if telemetry is not None:
            telemetry.bus.emit(
                "qcs.composed",
                application=path.application,
                n_nodes=plan.n_nodes,
                n_edges=n_edges,
                score=composed.score,
                hops=composed.hops,
            )
        return composed


def compose_qcs(
    path: AbstractServicePath,
    candidates: Mapping[str, Sequence[ServiceInstance]],
    user_qos: QoSVector,
    weights: WeightProfile,
    composer: Optional[VectorizedComposer] = None,
    telemetry: Optional[Any] = None,
) -> ComposedPath:
    """One-shot QCS: ``path`` in flow order, ``candidates`` per abstract
    service, the user's end-to-end ``user_qos`` and the Def. 3.1
    ``weights``; raises :class:`CompositionError` when no consistent
    path exists.

    Long-lived callers (the aggregator) hold a
    :class:`VectorizedComposer` so the incremental index and plan cache
    amortize across requests; without ``composer`` this builds a
    throwaway one.
    """
    if composer is None:
        composer = VectorizedComposer(weights)
    elif composer.weights is not weights:
        raise ValueError("composer was built for a different WeightProfile")
    return composer.compose(path, candidates, user_qos, telemetry=telemetry)

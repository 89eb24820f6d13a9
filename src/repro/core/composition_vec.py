"""The QCS kernel: §3.2 as numpy, vectorized and incremental.

The Fig. 3 consistency graph as per-node adjacency lists, relaxed by a
python Dijkstra / dp sweep, is ``O(K V^2)`` interpreted python per
request (that transcription is ``tests/core/reference_kernels.py``).
This module computes the *same function* as batched array operations:

* the Eq. 1 ``Qout ⊇ Qin`` consistency checks between two services'
  instance populations become one boolean **adjacency matrix** per
  service pair, filled by :func:`~repro.core.qos.satisfies_classes` from
  the instances' value-class codes -- the scalar relation asked once per
  distinct (offered value, required value) of each QoS dimension, not
  once per instance pair -- and *patched* with only the new
  rows/columns when churn/admission introduces instances the index has
  not seen (never rebuilt wholesale);
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

The §4.1 comparators ask the same Eq. 1 question of the same plan:
:meth:`VectorizedComposer.walk` picks a consistent path hop by hop with
a caller's chooser (a uniform draw for *random*, the first option for
*fixed*) and ignores resource costs -- the walk the test-side graph
(``tests/core/reference_kernels.py``) is held to, option for option.

Incremental maintenance
-----------------------
:class:`ConsistencyIndex` keys everything by ``instance_id`` (service
records are immutable after catalog populate).  Each service's instance
*universe* only ever grows, a block at a time: the candidates it has not
seen are admitted together, their ``Qin`` / ``Qout`` codes read straight
off their :class:`~repro.services.model.InstanceTable` and mapped onto
the index's value classes, their scores one ``np.dot`` per row.  Pair
matrices record the size they were filled against and patch only the
new rows/columns.  The user's sink
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
from itertools import groupby
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.composition import ComposedPath, CompositionError
from repro.core.qos import Column, QoSValue, QoSVector, satisfies_classes
from repro.core.resources import ResourceTuple, WeightProfile
from repro.services.model import (
    AbstractServicePath,
    InstanceTable,
    ServiceInstance,
)
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
        "service", "ids", "index", "scores", "codes", "_values", "_columns",
        "_keyed", "_keyed_ids", "_keyed_rows",
    )

    def __init__(self, service: str, values: List[QoSValue]) -> None:
        self.service = service
        self.ids: List[str] = []
        #: instance_id -> stable row/column index.
        self.index: Dict[str, int] = {}
        #: Scalar Def. 3.1 scores, aligned with ``ids`` (bit for bit the
        #: reference kernel's ``WeightProfile.score``).
        self.scores = np.zeros(0)
        #: ``codes[0]`` / ``codes[1]``: per dimension name, each
        #: instance's ``Qin`` / ``Qout`` value class (``-1``: absent),
        #: aligned with ``ids``; ``_values[c]`` is class ``c``'s value.
        self.codes: Tuple[Dict[str, np.ndarray], ...] = ({}, {})
        self._values = values
        #: The whole-population :meth:`columns` of each side, with the
        #: version they were built at.
        self._columns: List[Tuple[int, Dict[str, Column]]] = [(-1, {}), (-1, {})]
        #: The last candidate tuple admitted, its ids and its rows (see
        #: ``ConsistencyIndex.admit_candidates``).
        self._keyed: Tuple[ServiceInstance, ...] = ()
        self._keyed_ids: Tuple[str, ...] = ()
        self._keyed_rows = np.zeros(0, dtype=np.intp)

    @property
    def version(self) -> int:
        return len(self.ids)

    def columns(
        self, side: int, start: int = 0, stop: Optional[int] = None
    ) -> Dict[str, Column]:
        """Rows ``start:stop`` of the ``Qin`` (``side`` 0) or ``Qout``
        (1) population as :func:`satisfies_classes` columns; the whole
        population's are kept until the next admission."""
        whole = start == 0 and stop is None
        if whole and self._columns[side][0] == self.version:
            return self._columns[side][1]
        values = self._values
        columns: Dict[str, Column] = {}
        for name, codes in self.codes[side].items():
            part = codes[start:stop]
            classes = np.flatnonzero(np.bincount(part + 1)) - 1
            columns[name] = (
                [values[c] if c >= 0 else None for c in classes.tolist()],
                classes.searchsorted(part),
            )
        if whole:
            self._columns[side] = (self.version, columns)
        return columns


def _extend(
    columns: Dict[str, np.ndarray], n_old: int,
    dims: Sequence[str], block: np.ndarray,
) -> None:
    """Append ``block``'s code columns (named ``dims``) to ``columns``;
    a dimension one side lacks reads ``-1`` (absent) there."""
    new = dict(zip(dims, block.T))
    for name in [*columns, *(d for d in dims if d not in columns)]:
        old = columns.get(name)
        col = new.get(name)
        columns[name] = np.concatenate([
            np.full(n_old, -1) if old is None else old,
            np.full(len(block), -1) if col is None else col,
        ])


class _PairMatrix:
    """The Eq. 1 adjacency between two universes, patched incrementally.

    ``matrix[i, j]`` answers "may predecessor instance ``j`` feed
    current-layer instance ``i``" -- i.e.
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
        rows = cols = 0
        if nc > n_cur:
            grown[n_cur:], rows = satisfies_classes(
                pred.columns(1), cur.columns(0, n_cur), np_, nc - n_cur
            )
        if n_cur and np_ > n_pred:
            grown[:n_cur, n_pred:], cols = satisfies_classes(
                pred.columns(1, n_pred), cur.columns(0, 0, n_cur),
                np_ - n_pred, n_cur,
            )
        self.evaluations += rows + cols
        self.patched_rows += (nc - n_cur) + (np_ - n_pred)
        grown.setflags(write=False)  # plans may hold it (``_build_plan``)
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
    adjacency: List[np.ndarray]
    sink_universe: _Universe
    sink_rows: np.ndarray
    n_nodes: int
    n_adjacent: int
    outcomes: Dict[Hashable, Tuple[int, Optional[ComposedPath]]]


#: One layer of a candidate set: its universe, its candidates and their
#: rows in the universe.
_Layer = Tuple[_Universe, Tuple[ServiceInstance, ...], np.ndarray]


class ConsistencyIndex:
    """Incrementally maintained candidate matrices over the catalog.

    Owns the per-service universes, the pairwise adjacency matrices and
    the value classes their codes refer to (one class per ``==``-distinct
    QoS value, across every table admitted from).  Everything is keyed
    by ``instance_id`` and assumes service records are immutable after
    catalog populate; universes only ever *grow* -- departures are
    handled by requests simply not selecting the absent rows.
    """

    def __init__(self, weights: WeightProfile) -> None:
        self.weights = weights
        self._universes: Dict[str, _Universe] = {}
        self._pairs: Dict[Tuple[str, str], _PairMatrix] = {}
        self._sink_evaluations = 0
        #: Value classes: value -> class, and class -> value.
        self._classes: Dict[QoSValue, int] = {}
        self._values: List[QoSValue] = []
        #: Per table, the class of each of its value codes (``-1``: not
        #: mapped yet).
        self._remaps: Dict[InstanceTable, np.ndarray] = {}

    # -- universe maintenance ------------------------------------------------
    def universe(self, service: str) -> _Universe:
        uni = self._universes.get(service)
        if uni is None:
            uni = self._universes[service] = _Universe(service, self._values)
        return uni

    def _classes_of(
        self, table: InstanceTable, codes: np.ndarray
    ) -> np.ndarray:
        """The value classes of a block of ``table``'s QoS codes."""
        remap = self._remaps.get(table)
        if remap is None:
            remap = self._remaps[table] = np.full(len(table.values), -1)
        classes = remap[codes]
        if (classes < 0).any():
            known, values = self._classes, self._values
            for code in np.flatnonzero(np.bincount(codes[classes < 0])).tolist():
                value = table.values[code]
                cls = known.get(value)
                if cls is None:
                    cls = known[value] = len(values)
                    values.append(value)
                remap[code] = cls
            classes = remap[codes]
        return classes

    def admit_candidates(
        self, service: str, candidates: Tuple[ServiceInstance, ...]
    ) -> Tuple[_Universe, Tuple[str, ...], np.ndarray]:
        """Register the unseen candidates; the universe, the candidates'
        ids (their plan-key part) and their rows in the universe.

        The unseen candidates are admitted as one block per table they
        come from (one, for a catalog's).  The answer is kept per tuple
        *object*: the registry hands back one immutable record until
        membership replaces it, so asking again with it costs nothing,
        and holding the reference keeps ``is`` sound.
        """
        uni = self.universe(service)
        if candidates is uni._keyed:
            return uni, uni._keyed_ids, uni._keyed_rows
        index = uni.index
        ids = tuple(inst.instance_id for inst in candidates)
        fresh: Dict[str, ServiceInstance] = {}
        for iid, inst in zip(ids, candidates):
            if iid not in index and iid not in fresh:
                fresh[iid] = inst
        for table, run in groupby(fresh.values(), key=attrgetter("table")):
            self._admit(uni, table, [inst.row for inst in run])
        rows = np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))
        uni._keyed, uni._keyed_ids, uni._keyed_rows = candidates, ids, rows
        return uni, ids, rows

    def _admit(
        self, uni: _Universe, table: InstanceTable, rows: List[int]
    ) -> None:
        """Append ``table``'s ``rows`` to ``uni`` as one block."""
        weights = self.weights
        if table.resource_names != weights.resource_names:
            raise ValueError(
                f"tuple has dimensions {table.resource_names}, "
                f"profile expects {weights.resource_names}"
            )
        n_old = uni.version
        ids = [table.ids[row] for row in rows]
        uni.index.update(zip(ids, range(n_old, n_old + len(ids))))
        uni.ids += ids
        for side, dims, codes in (
            (0, table.in_dims, table.qin), (1, table.out_dims, table.qout)
        ):
            classes = self._classes_of(table, codes[rows])
            _extend(uni.codes[side], n_old, dims, classes)
        # WeightProfile.score, a block at a time: the same division and
        # bandwidth term elementwise, and one np.dot per row -- a
        # matrix-vector product would round differently.
        scaled = table.resources[rows] / weights.maxima
        dots = np.fromiter(
            map(weights.weights.dot, scaled), np.float64, len(rows)
        )
        bandwidth = table.bandwidth[rows]
        scores = dots + weights.bandwidth_weight * bandwidth / weights.bandwidth_max
        uni.scores = np.concatenate([uni.scores, scores])
        uni.scores.setflags(write=False)  # plans may hold it

    def pair_matrix(self, cur: _Universe, pred: _Universe) -> np.ndarray:
        """The synced adjacency matrix between two universes."""
        key = (cur.service, pred.service)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _PairMatrix()
        return pair.sync(cur, pred)

    def sink_row(self, uni: _Universe, user_qos: QoSVector) -> np.ndarray:
        """Boolean "satisfies the user requirement" row over a universe."""
        one = np.zeros(1, dtype=np.intp)
        matrix, evaluations = satisfies_classes(
            uni.columns(1),
            {name: ([value], one) for name, value in user_qos.items()},
            uni.version, 1,
        )
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

    # -- plan construction ---------------------------------------------------
    def _build_plan(self, layers: List[_Layer]) -> _Plan:
        """The plan of one candidate set, from its admitted layers.

        A layer whose rows are its whole universe in order gathers
        nothing: the plan refers to the index's own score vector and
        adjacency matrix, which are read-only and replaced, never
        written, when the index grows.
        """
        index = self.index
        universes = [uni for uni, _, _ in layers]
        idx_arrays = [rows for _, _, rows in layers]
        whole = [
            len(rows) == uni.version
            and np.array_equal(rows, np.arange(len(rows)))
            for uni, _, rows in layers
        ]
        adjacency = []
        for t in range(len(universes) - 1):
            matrix = index.pair_matrix(universes[t], universes[t + 1])
            if not whole[t]:
                matrix = matrix.take(idx_arrays[t], axis=0)
            if not whole[t + 1]:
                matrix = matrix.take(idx_arrays[t + 1], axis=1)
            adjacency.append(matrix)
        return _Plan(
            layers=[cands for _, cands, _ in layers],
            weights=[
                uni.scores if w else uni.scores[rows]
                for (uni, _, rows), w in zip(layers, whole)
            ],
            adjacency=adjacency,
            sink_universe=universes[0],
            sink_rows=idx_arrays[0],
            n_nodes=1 + sum(len(cands) for _, cands, _ in layers),
            n_adjacent=sum(int(a.sum()) for a in adjacency),
            outcomes={},
        )

    def _plan_for(
        self,
        path: AbstractServicePath,
        candidates: Mapping[str, Sequence[ServiceInstance]],
    ) -> _Plan:
        admit = self.index.admit_candidates
        layers: List[_Layer] = []
        key_parts: List[Hashable] = [path.services]
        for service in path.reversed():
            cands = tuple(candidates.get(service, ()))
            if not cands:
                raise CompositionError(
                    f"no candidate instances discovered for service {service!r}"
                )
            uni, ids, rows = admit(service, cands)
            layers.append((uni, cands, rows))
            key_parts.append(ids)
        key = tuple(key_parts)
        plans = self._plans
        plan = plans.get(key)
        if plan is None:
            plan = self._build_plan(layers)
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
        return self._path(
            [layer[i] for layer, i in zip(plan.layers, indices)], score
        )

    def _path(
        self, chosen: List[ServiceInstance], score: Optional[float] = None
    ) -> ComposedPath:
        """The :class:`ComposedPath` of ``chosen`` (user-adjacent first),
        its total re-accumulated through the ``zero + e1 + e2 + ...``
        :class:`ResourceTuple` chain; ``score`` defaults to the total's."""
        total = ResourceTuple.zero(self.weights.resource_names)
        for inst in chosen:
            total = total + ResourceTuple(inst.resources, inst.bandwidth)
        if score is None:
            score = self.weights.score(total)
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

    def walk(
        self,
        path: AbstractServicePath,
        candidates: Mapping[str, Sequence[ServiceInstance]],
        user_qos: QoSVector,
        choose: Callable[[int], int],
    ) -> ComposedPath:
        """A QoS-consistent path picked hop by hop, resource costs ignored.

        From the sink towards the source, ``choose(n)`` picks one of the
        ``n`` consistent predecessors (ascending candidate order) from
        which the source layer is still reachable, so the walk never
        dead-ends.  The *random* comparator passes a uniform draw,
        *fixed* the first option.  The score is the chosen total's.
        Raises :class:`CompositionError` for missing candidates or when
        no consistent path exists (before ``choose`` is ever called).
        """
        plan = self._plan_for(path, candidates)
        # viable[t]: the layers[t] candidates the source is reachable from.
        viable = [np.ones(len(plan.layers[-1]), dtype=bool)]
        for adjacency in reversed(plan.adjacency):
            viable.insert(0, (adjacency & viable[0]).any(axis=1))
        sink_mask = self.index.sink_row(plan.sink_universe, user_qos)
        options = np.flatnonzero(sink_mask[plan.sink_rows] & viable[0])
        if not options.size:
            raise CompositionError(
                f"no QoS-consistent service path for application "
                f"{path.application!r} at requirement {user_qos!r}"
            )
        chosen: List[ServiceInstance] = []
        for t, layer in enumerate(plan.layers):
            if t:
                options = np.flatnonzero(plan.adjacency[t - 1][j] & viable[t])
            j = int(options[choose(len(options))])
            chosen.append(layer[j])
        return self._path(chosen)


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

"""The reference QCS kernels: §3.2's Dijkstra and the one-sweep dp, the
explicit consistency graph they walk, and the comparators' graph walk.

:class:`ConsistencyGraph` is Fig. 3 as per-node adjacency lists, one
scalar Eq. 1 ``satisfies`` call per instance pair.  Moved here from
``repro.core.composition`` unchanged, as were the kernels: the line-for-line
Dijkstra from the sink that §3.2 prescribes, the layered-DAG dynamic
programme that gives the same answer in ``O(E)``, and the
``compose_qcs(method=...)`` entry around them *with* its span, counter
and bus-event emission -- so a whole run with this function patched in
for ``QSAAggregator.compose`` must export the same telemetry, byte for
byte, as the production kernel
(:func:`repro.core.composition_vec.compose_qcs`).  Both walk the
explicit :class:`ConsistencyGraph`; neither shares code with the numpy
relaxation they judge.  Optimality itself is
``reference_bruteforce.py``'s job.

The *random* / *fixed* comparators' walk over the same graph moved here
from ``repro.core.baselines`` unchanged (``_viable_nodes``,
:func:`random_consistent_path`, and :func:`first_viable_path`, the old
body of ``FixedAggregator._first_viable_path``): it is the oracle of
:meth:`repro.core.composition_vec.VectorizedComposer.walk`, which the
comparators run, and :func:`patch_walks` puts it back under a whole run.

:func:`satisfies_matrix` is Eq. 1 over two populations of vectors,
moved from ``repro.core.qos`` unchanged: it interns the vectors' values
into the per-dimension classes that production's ``ConsistencyIndex``
builds from the instance table's value codes, and hands them to the
same :func:`~repro.core.qos.satisfies_classes`.  :func:`compare` is
Def. 3.1 as the literal pairwise difference, moved from
``WeightProfile.compare``; production ranks by ``WeightProfile.score``.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import QSAAggregator
from repro.core.baselines import FixedAggregator, RandomAggregator
from repro.core.composition import ComposedPath, CompositionError
from repro.core.qos import Column, QoSValue, QoSVector, satisfies, satisfies_classes
from repro.core.resources import ResourceTuple, WeightProfile
from repro.services.model import AbstractServicePath, ServiceInstance
from repro.telemetry.spans import NULL_TRACER


class ConsistencyGraph:
    """The layered QoS-consistency graph of Fig. 3.

    Layers are indexed in *reverse flow order*: layer 0 is the virtual
    sink (the user host), layer 1 the user-adjacent abstract service, ...,
    layer ``n`` the source service.  ``edges[(layer, i)]`` lists
    ``(pred_index, tuple_score, resource_tuple)`` for every consistent
    predecessor instance in layer ``layer + 1``.
    """

    def __init__(
        self,
        path: AbstractServicePath,
        candidates: Mapping[str, Sequence[ServiceInstance]],
        user_qos: QoSVector,
        weights: WeightProfile,
    ) -> None:
        self.path = path
        self.user_qos = user_qos
        self.weights = weights
        #: layers[k] for k >= 1: candidate instances of the k-th service
        #: from the user side.  layers[0] is a placeholder for the sink.
        self.layers: List[List[ServiceInstance]] = [[]]
        for service in path.reversed():
            cands = list(candidates.get(service, ()))
            if not cands:
                raise CompositionError(
                    f"no candidate instances discovered for service {service!r}"
                )
            self.layers.append(cands)
        self.n_layers = len(self.layers)  # sink layer + one per service
        # Adjacency: edge from node (k, i) to predecessor (k+1, j).
        self.edges: Dict[Tuple[int, int], List[Tuple[int, float, ResourceTuple]]] = {}
        self._build()

    # -- construction --------------------------------------------------------
    def _build(self) -> None:
        """Add every consistency edge; cost = (R_pred, b_pred) per Def. 3.1."""
        score = self.weights.score
        for layer in range(self.n_layers - 1):
            preds = self.layers[layer + 1]
            costs = [ResourceTuple(p.resources, p.bandwidth) for p in preds]
            scores = [score(cost) for cost in costs]
            # Layer 0 is the sink: its requirement is the user's
            # end-to-end QoS vector.
            qins = (
                [inst.qin for inst in self.layers[layer]]
                if layer else [self.user_qos]
            )
            for i, qin in enumerate(qins):
                out = [
                    (j, scores[j], costs[j])
                    for j, pred in enumerate(preds)
                    if satisfies(pred.qout, qin)
                ]
                if out:
                    self.edges[(layer, i)] = out

    # -- statistics ----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return 1 + sum(len(layer) for layer in self.layers[1:])

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.edges.values())


def _shortest_dp(
    graph: ConsistencyGraph,
) -> Optional[Tuple[List[int], float, ResourceTuple]]:
    """Layer-by-layer DP sweep (the DAG fast path)."""
    # dist[(layer, i)] = (score, predecessor index in layer-1 sense).
    # Only scores drive the relaxations; the accumulated resource tuple
    # is recomputed once along the chosen path by _extract.
    dist: Dict[Tuple[int, int], Tuple[float, Optional[int]]] = {
        (0, 0): (0.0, None)
    }
    edges = graph.edges
    for layer in range(0, graph.n_layers - 1):
        n_here = 1 if layer == 0 else len(graph.layers[layer])
        next_layer = layer + 1
        for i in range(n_here):
            here = dist.get((layer, i))
            if here is None:
                continue
            score_here = here[0]
            for j, edge_score, _edge_tuple in edges.get((layer, i), ()):
                cand = score_here + edge_score
                existing = dist.get((next_layer, j))
                if existing is None or cand < existing[0]:
                    dist[(next_layer, j)] = (cand, i)
    return _extract(graph, dist)


def _shortest_dijkstra(
    graph: ConsistencyGraph,
) -> Optional[Tuple[List[int], float, ResourceTuple]]:
    """Dijkstra from the sink, as §3.2 prescribes."""
    dist: Dict[Tuple[int, int], Tuple[float, Optional[int]]] = {
        (0, 0): (0.0, None)
    }
    done: set = set()
    heap: List[Tuple[float, int, int]] = [(0.0, 0, 0)]
    while heap:
        score_here, layer, i = heapq.heappop(heap)
        node = (layer, i)
        if node in done:
            continue
        done.add(node)
        for j, edge_score, _edge_tuple in graph.edges.get(node, ()):
            nxt = (layer + 1, j)
            if nxt in done:
                continue
            cand = score_here + edge_score
            existing = dist.get(nxt)
            # Tie-break on equal scores toward the smaller predecessor
            # index: the DP's first-strict-improvement scan keeps the
            # smallest minimizing index, and edge scores are positive,
            # so every tying predecessor settles before ``nxt`` pops --
            # making the three kernels path-identical even on exact
            # score ties, as the compose_qcs contract promises.
            if (
                existing is None
                or cand < existing[0]
                or (cand == existing[0]
                    and existing[1] is not None
                    and i < existing[1])
            ):
                dist[nxt] = (cand, i)
                heapq.heappush(heap, (cand, layer + 1, j))
    return _extract(graph, dist)


def _extract(
    graph: ConsistencyGraph,
    dist: Dict[Tuple[int, int], Tuple[float, Optional[int]]],
) -> Optional[Tuple[List[int], float, ResourceTuple]]:
    """Pick the best source-layer node and backtrack the chosen indices."""
    source_layer = graph.n_layers - 1
    best_j: Optional[int] = None
    best: Optional[Tuple[float, Optional[int]]] = None
    for j in range(len(graph.layers[source_layer])):
        entry = dist.get((source_layer, j))
        if entry is not None and (best is None or entry[0] < best[0]):
            best, best_j = entry, j
    if best is None:
        return None
    # Backtrack: indices[k] = chosen instance index in layer k (1-based layers).
    indices = [0] * (graph.n_layers - 1)
    layer, j = source_layer, best_j
    entry = best
    while layer >= 1:
        indices[layer - 1] = j
        j = entry[1]
        layer -= 1
        if layer >= 1:
            entry = dist[(layer, j)]
    # Re-accumulate the resource tuple along the chosen path in the same
    # zero + e1 + e2 + ... order the relaxations used to carry it, so the
    # reported total is bit-identical to the carried spelling.
    total = ResourceTuple.zero(graph.weights.resource_names)
    prev_i = 0
    for layer in range(0, source_layer):
        nxt_j = indices[layer]
        for j2, _edge_score, edge_tuple in graph.edges[(layer, prev_i)]:
            if j2 == nxt_j:
                total = total + edge_tuple
                break
        prev_i = nxt_j
    return indices, best[0], total


def compose_qcs(
    path: AbstractServicePath,
    candidates: Mapping[str, Sequence[ServiceInstance]],
    user_qos: QoSVector,
    weights: WeightProfile,
    method: str = "dp",
    telemetry: Optional[Any] = None,
) -> ComposedPath:
    """Run QCS and return the QoS-consistent, resource-shortest path.

    Parameters
    ----------
    path:
        Abstract service path in flow order.
    candidates:
        Discovered instances per abstract service.
    user_qos:
        The user's end-to-end QoS requirement (checked against the
        user-adjacent instance's ``Qout``).
    weights:
        Def. 3.1 weight profile used for the tuple order.
    method:
        ``"dp"`` (default, layered-DAG sweep) or ``"dijkstra"``
        (the paper's formulation).  Both return identical paths.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; instruments the
        graph-build and shortest-path phases at phase granularity only
        (never inside the edge loops).

    Raises
    ------
    CompositionError
        If some service has no candidates or no QoS-consistent path
        exists.
    """
    tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
    with tracer.span("qcs.compose", application=path.application):
        with tracer.span("qcs.graph_build"):
            graph = ConsistencyGraph(path, candidates, user_qos, weights)
        if telemetry is not None:
            m = telemetry.metrics
            m.counter("qcs.compositions").inc()
            m.counter("qcs.graph_nodes").inc(graph.n_nodes)
            m.counter("qcs.graph_edges").inc(graph.n_edges)
        # One kernel-neutral span name: the exactness contract demands
        # byte-identical telemetry across kernels (dp / dijkstra /
        # vectorized), so the solver phase may not leak the method.
        if method == "dp":
            with tracer.span("qcs.solve"):
                result = _shortest_dp(graph)
        elif method == "dijkstra":
            with tracer.span("qcs.solve"):
                result = _shortest_dijkstra(graph)
        else:
            raise ValueError(
                f"unknown method {method!r} (use 'dp' or 'dijkstra')"
            )
    if result is None:
        if telemetry is not None:
            telemetry.metrics.counter("qcs.no_path").inc()
            telemetry.bus.emit(
                "qcs.failed",
                application=path.application,
                n_nodes=graph.n_nodes,
                n_edges=graph.n_edges,
            )
        raise CompositionError(
            f"no QoS-consistent service path for application "
            f"{path.application!r} at requirement {user_qos!r}"
        )
    indices, score, total = result
    # indices[k] indexes graph.layers[k+1] (reverse flow order); flip to
    # flow order for the ComposedPath contract.
    chosen_reverse = [
        graph.layers[k + 1][indices[k]] for k in range(len(indices))
    ]
    if telemetry is not None:
        telemetry.bus.emit(
            "qcs.composed",
            application=path.application,
            n_nodes=graph.n_nodes,
            n_edges=graph.n_edges,
            score=score,
            hops=len(chosen_reverse),
        )
    return ComposedPath(
        instances=tuple(reversed(chosen_reverse)), total=total, score=score
    )


def _viable_nodes(graph: ConsistencyGraph) -> set:
    """Nodes from which the source layer is reachable via consistency edges."""
    source_layer = graph.n_layers - 1
    viable = {(source_layer, j) for j in range(len(graph.layers[source_layer]))}
    for layer in range(source_layer - 1, -1, -1):
        n_here = 1 if layer == 0 else len(graph.layers[layer])
        for i in range(n_here):
            for j, _score, _t in graph.edges.get((layer, i), ()):
                if (layer + 1, j) in viable:
                    viable.add((layer, i))
                    break
    return viable


def random_consistent_path(
    graph: ConsistencyGraph, rng: np.random.Generator
) -> ComposedPath:
    """A uniformly random walk over the *viable* consistency edges.

    Viability pruning guarantees the walk never dead-ends, so the result
    is always a complete QoS-consistent path; resource costs are ignored
    in every choice, exactly as the paper's random heuristic prescribes.
    """
    viable = _viable_nodes(graph)
    if (0, 0) not in viable:
        raise CompositionError(
            f"no QoS-consistent service path for {graph.path.application!r}"
        )
    chosen: List[ServiceInstance] = []
    total = ResourceTuple.zero(graph.weights.resource_names)
    node = (0, 0)
    for layer in range(0, graph.n_layers - 1):
        options = [
            (j, t)
            for j, _score, t in graph.edges.get(node, ())
            if (layer + 1, j) in viable
        ]
        j, t = options[int(rng.integers(len(options)))]
        chosen.append(graph.layers[layer + 1][j])
        total = total + t
        node = (layer + 1, j)
    return ComposedPath(
        instances=tuple(reversed(chosen)),
        total=total,
        score=graph.weights.score(total),
    )


def first_viable_path(graph: ConsistencyGraph) -> ComposedPath:
    """Deterministic first viable path (ignores resource costs)."""
    viable = _viable_nodes(graph)
    if (0, 0) not in viable:
        raise CompositionError("no consistent path")
    chosen: List[ServiceInstance] = []
    total = ResourceTuple.zero(graph.weights.resource_names)
    node = (0, 0)
    for layer in range(0, graph.n_layers - 1):
        options = [
            (j, t)
            for j, _score, t in graph.edges.get(node, ())
            if (layer + 1, j) in viable
        ]
        j, t = min(options, key=lambda jt: jt[0])
        chosen.append(graph.layers[layer + 1][j])
        total = total + t
        node = (layer + 1, j)
    return ComposedPath(
        instances=tuple(reversed(chosen)),
        total=total,
        score=graph.weights.score(total),
    )


def patch_walks(monkeypatch) -> None:
    """Make *random* and *fixed* compose by walking a freshly built
    :class:`ConsistencyGraph`, as they did before they walked the
    composer's plan (same weights, same RNG).  A3's random-path hybrid
    calls ``RandomAggregator.compose``, so it follows."""

    def random_compose(self, path, candidates, user_qos, request):
        graph = ConsistencyGraph(
            path, candidates, user_qos, self.composer.weights
        )
        return random_consistent_path(graph, self.rng)

    def fixed_first_viable_path(self, path, candidates, user_qos):
        return first_viable_path(ConsistencyGraph(
            path, candidates, user_qos, self.composer.weights
        ))

    monkeypatch.setattr(RandomAggregator, "compose", random_compose)
    monkeypatch.setattr(
        FixedAggregator, "_first_viable_path", fixed_first_viable_path
    )


#: Whole-run differentials (``tests/perf/``): ``(prober -- a key of
#: tests/probing/reference_prober.py::PROBERS --, reference kernel to
#: compose with, or None for the production one)``.
WHOLE_RUN_VARIANTS = [
    ("production", None), ("reference", None),
    ("production", "dp"), ("reference", "dp"), ("production", "dijkstra"),
]


def patch_compose(monkeypatch, method: Optional[str]) -> None:
    """Make every ``QSAAggregator`` compose with this module's kernel
    (same weights, same telemetry handle); ``None`` patches nothing."""
    if method is None:
        return

    def compose(self, path, candidates, user_qos, request):
        return compose_qcs(
            path, candidates, user_qos, self.composition_weights,
            method=method, telemetry=self.telemetry,
        )

    monkeypatch.setattr(QSAAggregator, "compose", compose)


def satisfies_matrix(
    offered: Sequence[QoSVector], required: Sequence[QoSVector]
) -> np.ndarray:
    """Eq. 1 over two populations: ``M[i, j] == satisfies(offered[j], required[i])``.

    Returns ``bool[len(required), len(offered)]``.  See
    :func:`satisfies_matrix_counted` for how it avoids asking the scalar
    relation once per cell.
    """
    return satisfies_matrix_counted(offered, required)[0]


def satisfies_matrix_counted(
    offered: Sequence[QoSVector], required: Sequence[QoSVector]
) -> Tuple[np.ndarray, int]:
    """:func:`satisfies_matrix` plus the scalar clause evaluations it spent.

    Eq. 1 is a conjunction of independent per-dimension clauses, and a
    clause sees nothing of a vector but the one value it carries under
    that name.  So, per dimension name any requirement mentions, the
    distinct values on each side are interned by Python equality
    ("absent" -- ``None``, which no vector can carry -- is a class of
    its own) into a :data:`Column`, and :func:`~repro.core.qos.satisfies_classes`
    asks ``_value_satisfies`` once per distinct (offered value, required
    value).  Values equal under ``==`` (``1`` and ``1.0``,
    ``Interval(1, 2)`` and ``Interval(1.0, 2.0)``) share a class only
    because every comparison the clause makes is exact on them, i.e. the
    clause cannot tell them apart; ints that merely collide as floats
    differ under ``==`` and do not.

    The second element is the number of ``_value_satisfies`` calls:
    ``sum over dimensions of |required values| * |offered values|``,
    against ``len(required) * len(offered)`` vector checks cell by cell.
    """

    def column(vectors: Sequence[QoSVector], name: str) -> Column:
        classes: Dict[Optional[QoSValue], int] = {}
        at = [
            classes.setdefault(v._params.get(name), len(classes))
            for v in vectors
        ]
        return list(classes), np.array(at, dtype=np.intp)

    names: Dict[str, QoSValue] = {}  # an ordered set; values unused
    for vector in required:
        names.update(vector._params)
    return satisfies_classes(
        {name: column(offered, name) for name in names},
        {name: column(required, name) for name in names},
        len(offered),
        len(required),
    )


def compare(profile: WeightProfile, t1: ResourceTuple, t2: ResourceTuple) -> int:
    """Literal Def. 3.1 under ``profile``: +1 if ``t1 > t2``, -1 if ``t1 < t2``,
    else 0.

    Evaluates the weighted-normalized difference sum exactly as
    written in Eq. 2 (rather than via ``WeightProfile.score``); a property test
    asserts the two forms induce the same ordering.
    """
    if t1.resources.names != profile.resource_names:
        raise ValueError("t1 dimension mismatch")
    if t2.resources.names != profile.resource_names:
        raise ValueError("t2 dimension mismatch")
    diff = float(
        np.dot(
            profile.weights,
            (t1.resources.values - t2.resources.values) / profile.maxima,
        )
        + profile.bandwidth_weight
        * (t1.bandwidth - t2.bandwidth)
        / profile.bandwidth_max
    )
    if diff > 0:
        return 1
    if diff < 0:
        return -1
    return 0

"""QCS -- the "QoS Consistent and Shortest" composition algorithm (§3.2).

Given

* an abstract service path (flow order ``source -> ... -> last``),
* for every abstract service, the candidate :class:`ServiceInstance`\\ s
  discovered through the P2P lookup substrate, and
* the user's end-to-end QoS requirement,

QCS builds the *consistency graph* of Fig. 3 and finds the QoS-consistent
service path with minimum aggregated resource requirements:

1. Start from the (data) **sink** -- a virtual node representing the
   user's host whose input requirement is the user's QoS vector (the
   paper phrases this as "the Qout of the sink service is set as the
   user's QoS requirements"; either way the first consistency check is
   *last-hop instance output vs. user requirement*).
2. Walk layer by layer in the **reverse direction of the aggregation
   flow**, adding a directed edge ``current -> predecessor`` whenever the
   predecessor's ``Qout`` *satisfies* the current node's ``Qin`` (Eq. 1).
3. Weight the edge into instance ``B`` with the resource tuple
   ``(R_B, b_{B,A})`` (Def. 3.1); the sink's own resources are excluded
   (paper footnote 3).
4. Take the shortest path from the sink to the source layer under the
   weighted-normalized tuple order; report the minimum-cost source-layer
   node's path.

Because tuple comparison is equivalent to comparing scalar *scores* (see
:class:`~repro.core.resources.WeightProfile`), step 4 runs on
non-negative additive edge scores.  The worst-case work is ``O(K V^2)``
in the paper's notation (``V`` candidate instances overall, ``K``
candidates for the source service).

This module holds the result types and the explicit per-node graph of
steps 1-3, :class:`ConsistencyGraph` -- what the *random* / *fixed*
comparators (:mod:`repro.core.baselines`) walk.  Step 4, and the one QCS
kernel the ``qsa`` pipeline runs, is
:func:`repro.core.composition_vec.compose_qcs`; the line-for-line
Dijkstra of §3.2 and the one-sweep dp it is held to live with the tests
(``tests/core/reference_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.qos import QoSVector, satisfies
from repro.core.resources import ResourceTuple, WeightProfile
from repro.services.model import AbstractServicePath, ServiceInstance

__all__ = [
    "CompositionError",
    "ComposedPath",
    "ConsistencyGraph",
]


class CompositionError(Exception):
    """No QoS-consistent service path exists for the request."""


@dataclass(frozen=True)
class ComposedPath:
    """The result of QCS: one instance per abstract service, flow order.

    Attributes
    ----------
    instances:
        Chosen instances, **flow order** (source first, user-adjacent
        last).
    total:
        Aggregated resource tuple over the path: the sum of every chosen
        instance's ``R`` and of every connection's bandwidth (each
        instance contributes its outgoing bandwidth; the last instance's
        connection goes to the user host).
    score:
        ``WeightProfile.score(total)`` -- the Dijkstra distance at the
        source node.
    """

    instances: Tuple[ServiceInstance, ...]
    total: ResourceTuple
    score: float

    @property
    def hops(self) -> int:
        return len(self.instances)

    def edge_bandwidths(self) -> Tuple[float, ...]:
        """Bandwidth per connection, selection order (user side first).

        Element ``i`` is the bandwidth on the connection *out of* the
        ``i``-th peer counted from the user, i.e.
        ``instances[-1].bandwidth`` first.
        """
        return tuple(inst.bandwidth for inst in reversed(self.instances))

    def __repr__(self) -> str:
        chain = " -> ".join(i.instance_id for i in self.instances)
        return f"<ComposedPath {chain} (score={self.score:.4f})>"


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

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

This module holds the result types.  Steps 1-3 are the plan of
:class:`repro.core.composition_vec.VectorizedComposer` (Eq. 1 adjacency
matrices sliced per candidate set), and step 4 -- the one QCS kernel
the ``qsa`` pipeline runs -- is
:func:`repro.core.composition_vec.compose_qcs`.  The *random* / *fixed*
comparators (:mod:`repro.core.baselines`) walk the same plan.  The
explicit per-node graph of steps 1-3, with the line-for-line Dijkstra
of §3.2 and the one-sweep dp over it, lives with the tests
(``tests/core/reference_kernels.py``) as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.core.resources import ResourceTuple
from repro.services.model import ServiceInstance

__all__ = ["CompositionError", "ComposedPath"]


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

    A path is composed once and handed to every request its plan
    answers, so it also carries the selection walk's plan
    (:meth:`walk_plan`); that derived data is not part of its value
    and lives exactly as long as the path does.
    """

    instances: Tuple[ServiceInstance, ...]
    total: ResourceTuple
    score: float
    #: The last :meth:`walk_plan` built (``None``: none yet).
    _walk: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def hops(self) -> int:
        return len(self.instances)

    def walk_plan(
        self,
        hosts: Sequence[Sequence[int]],
        build: Callable[[Sequence[Sequence[int]]], Any],
    ) -> Any:
        """The selection walk's plan over ``hosts`` (selection order):
        the one kept here while it was built from these very host
        records (``plan.built_from(hosts)``), else ``build(hosts)``, kept
        in its place.

        The registry hands out one immutable record per instance until
        membership replaces it, so a record that is still the same
        object still has the same hosts; one plan is kept per path.
        """
        plan = self._walk
        if plan is None or not plan.built_from(hosts):
            plan = build(hosts)
            object.__setattr__(self, "_walk", plan)
        return plan

    def __repr__(self) -> str:
        chain = " -> ".join(i.instance_id for i in self.instances)
        return f"<ComposedPath {chain} (score={self.score:.4f})>"

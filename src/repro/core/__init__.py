"""The paper's primary contribution: the QSA service aggregation model.

Sub-modules
-----------
``qos``
    Application-level QoS vectors (``Qin``/``Qout``) and the inter-component
    "satisfy" relation (paper Eq. 1).
``resources``
    End-system resource vectors, the resource tuple ``(R, b)`` attached to
    composition-graph edges, and the weighted-normalized tuple comparison
    of Definition 3.1 (Eq. 2-3).
``composition``, ``composition_vec``
    The QCS ("QoS Consistent and Shortest") on-demand service composition
    algorithm (paper §3.2, Fig. 3): result types; the kernel
    (``compose_qcs``) and the consistent-path walk the comparators use.
``selection``
    The dynamic peer selection tier: the Φ metric (Eq. 4-5), uptime filter
    and distributed hop-by-hop selection (paper §3.3, Fig. 4).
``aggregation``
    The two tiers glued into the full QSA pipeline.
``baselines``
    The *random* and *fixed* comparison heuristics from §4.1.
"""

from repro.core.qos import Interval, QoSVector, satisfies
from repro.core.resources import ResourceTuple, ResourceVector, WeightProfile
from repro.core.composition import CompositionError, ComposedPath
from repro.core.composition_vec import compose_qcs
from repro.core.selection import PeerSelector, PhiWeights, SelectionOutcome
from repro.core.aggregation import QSAAggregator, AggregationResult
from repro.core.baselines import FixedAggregator, RandomAggregator

__all__ = [
    "AggregationResult",
    "ComposedPath",
    "CompositionError",
    "FixedAggregator",
    "Interval",
    "PeerSelector",
    "PhiWeights",
    "QSAAggregator",
    "QoSVector",
    "RandomAggregator",
    "ResourceTuple",
    "ResourceVector",
    "SelectionOutcome",
    "WeightProfile",
    "compose_qcs",
    "satisfies",
]

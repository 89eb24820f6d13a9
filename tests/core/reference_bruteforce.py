"""Brute-force QCS: the executable spec of *optimality* for tiny instances.

Enumerates every Eq. 1-consistent path (one candidate per service, the
user-adjacent one also satisfying the user's QoS vector) and takes the
Def. 3.1 minimum -- no graph, no relaxation, no memo, so it shares no
logic with the three kernels it judges.  Ties go the way the reference
DP breaks them: smallest candidate index at the source service, then at
each service toward the user.  That path-level rule coincides with the
DP's per-node "first strict improvement" only when score sums are exact
(otherwise a sub-optimal prefix can round into a tie), so callers draw
resources and weights from dyadic grids.  Exponential: keep it to
<= 4 services x <= 5 candidates.
"""

from itertools import product

from repro.core.qos import satisfies
from repro.core.resources import ResourceTuple


def best_path(path, candidates, user_qos, weights):
    """``(instances in flow order, score, total)`` or ``None`` if no
    consistent path exists (including an empty candidate layer)."""
    layers = [list(candidates.get(s, ())) for s in path.reversed()]
    best = None
    for choice in product(*(range(len(layer)) for layer in layers)):
        chain = [layer[i] for layer, i in zip(layers, choice)]  # user side first
        if not satisfies(chain[0].qout, user_qos) or not all(
            satisfies(up.qout, down.qin) for down, up in zip(chain, chain[1:])
        ):
            continue
        score = 0.0
        total = ResourceTuple.zero(weights.resource_names)
        for inst in chain:  # the sink->source accumulation order of §3.2
            cost = ResourceTuple(inst.resources, inst.bandwidth)
            score += weights.score(cost)
            total = total + cost
        key = (score, choice[::-1])
        if best is None or key < best[0]:
            best = (key, tuple(reversed(chain)), total)
    return None if best is None else (best[1], best[0][0], best[2])

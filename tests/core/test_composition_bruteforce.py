"""Optimality, not only agreement: the production kernel (and both
test-side reference kernels) against brute-force enumeration.

``test_composition_equivalence.py`` proves the three kernels agree;
this suite proves what they agree *on* is the Def. 3.1 minimum over all
Eq. 1-consistent paths, by holding them to
:func:`tests.core.reference_bruteforce.best_path` on tiny instances.
QoS vectors come from the heterogeneous strategy of
``test_qos_matrix.py`` (missing dimensions, ``1`` / ``1.0`` /
``Interval(1, 1)`` look-alikes, ints that collide as floats), narrowed
to a pool dense enough that consistent paths are common.  Resources,
maxima and weights are powers of two, so every score sum is exact and
ties -- frequent on this coarse grid -- have one well-defined winner.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.composition import CompositionError
from repro.core.composition_vec import compose_qcs
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath
from tests.core import reference_kernels
from tests.core.reference_bruteforce import best_path
from tests.core.test_qos_matrix import BIG, qos_vectors
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
#: Dyadic weights and maxima: scores are exact binary fractions.
WEIGHTS = WeightProfile(NAMES, (0.25, 0.25), 0.5, (1024.0, 1024.0), 2.0**20)

_POOL = (1, 1.0, "1", 2, Interval(1, 1), Interval(1, 3), BIG, BIG + 1)
_VECTORS = qos_vectors(_POOL, ("format", "quality"))
_IDS = itertools.count()
_KERNELS = (
    compose_qcs,
    lambda *args: reference_kernels.compose_qcs(*args, method="dp"),
    lambda *args: reference_kernels.compose_qcs(*args, method="dijkstra"),
)


@st.composite
def tiny_cases(draw):
    n_services = draw(st.integers(min_value=1, max_value=4))
    services = tuple(f"svc{k}" for k in range(n_services))
    candidates = {
        service: [
            make_instance(
                instance_id=f"bf{next(_IDS)}",
                service=service,
                qin=draw(_VECTORS),
                qout=draw(_VECTORS),
                resources=ResourceVector(NAMES, [
                    draw(st.sampled_from((16.0, 32.0))),
                    draw(st.sampled_from((16.0, 32.0))),
                ]),
                bandwidth=draw(st.sampled_from((1024.0, 4096.0))),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=5)))
        ]
        for service in services
    }
    return AbstractServicePath("app", services), candidates, draw(_VECTORS)


@settings(deadline=None, max_examples=300)
@given(case=tiny_cases())
def test_every_kernel_returns_the_bruteforce_optimum(case):
    path, candidates, user_qos = case
    expected = best_path(path, candidates, user_qos, WEIGHTS)
    for kernel in _KERNELS:
        try:
            got = kernel(path, candidates, user_qos, WEIGHTS)
        except CompositionError:
            got = None
        if expected is None:
            assert got is None, (case, got)
        else:
            assert got is not None, (case, expected)
            instances, score, total = expected
            assert got.instances == instances, (case, got, expected)
            assert got.score == score
            assert got.total == total


def test_crossing_tie_goes_to_the_smallest_source_index():
    # Two equal-score optima that cross: a0 -> b1 and a1 -> b0 (flow
    # order a -> b -> user).  The DP settles the source service first,
    # so a0 -> b1 wins although b0 has the smaller user-side index.
    def inst(service, j, qin, fmt_out):
        return make_instance(
            instance_id=f"x/{service}/{j}",
            service=service,
            qin=qin,
            qout=QoSVector(format=fmt_out),
            resources=ResourceVector(NAMES, [16.0, 16.0]),
            bandwidth=1024.0,
        )

    path = AbstractServicePath("app", ("a", "b"))
    candidates = {
        "a": [inst("a", 0, QoSVector(), "p"), inst("a", 1, QoSVector(), "q")],
        "b": [
            inst("b", 0, QoSVector(format="q"), "out"),
            inst("b", 1, QoSVector(format="p"), "out"),
        ],
    }
    user_qos = QoSVector(format="out")
    instances, score, total = best_path(path, candidates, user_qos, WEIGHTS)
    assert [i.instance_id for i in instances] == ["x/a/0", "x/b/1"]
    for kernel in _KERNELS:
        got = kernel(path, candidates, user_qos, WEIGHTS)
        assert (got.instances, got.score, got.total) == (instances, score, total)

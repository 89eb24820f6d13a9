"""``satisfies_matrix`` against its one-line spec, cell by cell.

    M[i, j] == satisfies(offered[j], required[i])

The matrix form asks the scalar clause once per *distinct* (offered
value, required value) of a dimension, so the invariant under test is:
values that are equal under ``==`` may share a class only because
``_value_satisfies`` cannot distinguish them.  The strategy therefore
draws every dimension from one small pool that puts the look-alikes
side by side under the same name -- ``1`` / ``1.0`` / ``"1"`` /
``Interval(1, 1)`` / ``Interval(1.0, 1.0)``, ints above 2**53 that
differ as ints but collide as floats -- with dimensions missing on
either side.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.qos import Interval, QoSVector, satisfies
from tests.core.reference_kernels import satisfies_matrix, satisfies_matrix_counted

BIG = 2**53

#: One pool for every dimension name: small, so classes collide often.
VALUE_POOL = (
    1, 1.0, "1", 2, 2.5, 3, "a", "b",
    Interval(1, 1), Interval(1.0, 1.0), Interval(1, 3), Interval(2, 3),
    Interval(2.5, 2.5),
    BIG, BIG + 1, float(BIG), BIG + 2,
    Interval(BIG, BIG), Interval(BIG + 1, BIG + 1), Interval(BIG, BIG + 2),
)
DIMENSIONS = ("format", "quality", "rate")


def qos_vectors(pool=VALUE_POOL, dimensions=DIMENSIONS):
    """Heterogeneous QoS vectors: each dimension present or not, any
    pool value under any name.  (Also the QoS strategy of the
    brute-force QCS test, tests/core/test_composition_bruteforce.py.)"""
    return st.dictionaries(
        st.sampled_from(dimensions), st.sampled_from(pool),
        max_size=len(dimensions),
    ).map(QoSVector)


def _distinct(values):
    """Distinct-by-``==`` values, without trusting ``hash``."""
    out = []
    for v in values:
        if not any(v == seen for seen in out):
            out.append(v)
    return out


def class_bound(offered, required):
    """Σ_dims |required values| · |offered values| (absent excluded)."""
    bound = 0
    for name in DIMENSIONS:
        req = _distinct(r[name] for r in required if name in r)
        off = _distinct(o[name] for o in offered if name in o)
        bound += len(req) * len(off)
    return bound


@settings(deadline=None, max_examples=300)
@given(
    offered=st.lists(qos_vectors(), max_size=8),
    required=st.lists(qos_vectors(), max_size=8),
)
def test_matrix_equals_scalar_relation_cell_by_cell(offered, required):
    matrix, evaluations = satisfies_matrix_counted(offered, required)
    assert matrix.dtype == np.bool_
    assert matrix.shape == (len(required), len(offered))
    for i, req in enumerate(required):
        for j, off in enumerate(offered):
            assert matrix[i, j] == satisfies(off, req), (off, req)
    assert np.array_equal(matrix, satisfies_matrix(offered, required))
    # The work is per value class, never per instance pair.
    assert evaluations == (class_bound(offered, required) if matrix.size else 0)


def test_empty_populations_have_the_right_shape():
    q = QoSVector(format="a")
    assert satisfies_matrix([], [q, q, q]).shape == (3, 0)
    assert satisfies_matrix([q, q], []).shape == (0, 2)
    assert satisfies_matrix([], []).shape == (0, 0)


def test_empty_requirement_admits_everything():
    offered = [QoSVector(), QoSVector(format="a"), QoSVector(rate=Interval(1, 3))]
    matrix, evaluations = satisfies_matrix_counted(
        offered, [QoSVector(), QoSVector(format="a")]
    )
    assert matrix[0].all()
    assert matrix[1].tolist() == [False, True, False]  # absent offer: never
    assert evaluations == 1  # one present offered value x one requirement


def test_equal_values_share_a_class_and_colliding_floats_do_not():
    # 1 == 1.0 and the two degenerate intervals are equal under ==:
    # two offered classes against one required value -> two evaluations
    # for four instances.
    offered = [
        QoSVector(quality=v)
        for v in (1, 1.0, Interval(1, 1), Interval(1.0, 1.0))
    ]
    matrix, evaluations = satisfies_matrix_counted(
        offered, [QoSVector(quality=1)]
    )
    assert matrix.all() and evaluations == 2
    # BIG + 1 != BIG as ints although float(BIG + 1) == float(BIG): they
    # must stay separate classes, because a range requirement *can* tell
    # Interval(BIG + 1, BIG + 1) from Interval(BIG, BIG).
    offered = [
        QoSVector(quality=v)
        for v in (BIG, BIG + 1, Interval(BIG, BIG), Interval(BIG + 1, BIG + 1))
    ]
    required = [QoSVector(quality=Interval(BIG, BIG)), QoSVector(quality=BIG)]
    matrix, evaluations = satisfies_matrix_counted(offered, required)
    assert evaluations == 8
    assert matrix.tolist() == [
        [satisfies(o, r) for o in offered] for r in required
    ]
    assert matrix[0].tolist() == [True, True, True, False]


def test_string_and_number_under_one_name_never_match():
    offered = [QoSVector(format="1"), QoSVector(format=1)]
    required = [QoSVector(format=1), QoSVector(format="1")]
    assert satisfies_matrix(offered, required).tolist() == [
        [False, True], [True, False],
    ]

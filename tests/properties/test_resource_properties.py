"""Property-based tests for resource tuples and the Def. 3.1 order."""

import numpy as np
from hypothesis import given, strategies as st

from repro.core.resources import ResourceTuple, ResourceVector, WeightProfile
from tests.core.reference_kernels import compare

NAMES = ("cpu", "memory")

amounts = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def tuples(draw):
    cpu = draw(amounts)
    mem = draw(amounts)
    bw = draw(st.floats(min_value=0.0, max_value=1e7, allow_nan=False))
    return ResourceTuple(ResourceVector(NAMES, [cpu, mem]), bw)


@st.composite
def profiles(draw):
    w = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(3)]
    return WeightProfile(
        NAMES, w[:2], w[2], (1e4, 1e4), 1e7, normalize=True
    )


@given(profiles(), tuples(), tuples())
def test_compare_antisymmetric(p, a, b):
    assert compare(p, a, b) == -compare(p, b, a)


@given(profiles(), tuples())
def test_compare_reflexive_zero(p, a):
    assert compare(p, a, a) == 0


@given(profiles(), tuples(), tuples())
def test_compare_matches_score_order(p, a, b):
    """Away from float-noise ties, Def. 3.1 and the scalar score agree.

    (At exact ties the two formulations can round the ~1e-19 residue in
    opposite directions -- mathematically both are zero.)
    """
    cmp = compare(p, a, b)
    ds = p.score(a) - p.score(b)
    if abs(ds) > 1e-9:
        assert np.sign(ds) == cmp
    else:
        # Near-tie: compare must not report a *large* difference; its
        # internal diff is the same quantity up to rounding.
        assert cmp in (-1, 0, 1)


@given(profiles(), tuples(), tuples(), tuples())
def test_order_preserved_under_addition(p, a, b, c):
    """Dijkstra's correctness hinges on additive monotonicity."""
    if compare(p, a, b) > 0:
        assert p.score(a + c) >= p.score(b + c) - 1e-9


@given(profiles(), tuples(), tuples())
def test_score_additive(p, a, b):
    assert np.isclose(p.score(a + b), p.score(a) + p.score(b), rtol=1e-9)


@given(tuples(), tuples())
def test_tuple_addition_commutative(a, b):
    ab, ba = a + b, b + a
    assert ab.resources == ba.resources
    assert ab.bandwidth == ba.bandwidth


@given(profiles(), tuples())
def test_scores_nonnegative(p, a):
    assert p.score(a) >= 0.0


@given(st.lists(tuples(), min_size=1, max_size=6))
def test_sum_matches_manual_accumulation(ts):
    total = ResourceTuple.zero(NAMES)
    for t in ts:
        total = total + t
    assert np.allclose(
        total.resources.values, np.sum([t.resources.values for t in ts], axis=0)
    )
    assert np.isclose(total.bandwidth, sum(t.bandwidth for t in ts))

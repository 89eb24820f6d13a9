"""Property-based tests for the QoS model (Eq. 1 relation)."""

from hypothesis import given, strategies as st

from repro.core.qos import Interval, QoSVector, satisfies

# -- strategies ---------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    lo = draw(finite)
    width = draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    return Interval(lo, lo + width)


qos_values = st.one_of(
    st.text(min_size=1, max_size=8),
    st.integers(min_value=-1000, max_value=1000),
    finite,
    intervals(),
)

param_names = st.sampled_from(["format", "rate", "res", "quality", "color"])


def qos_vectors(max_params=4):
    return st.dictionaries(param_names, qos_values, max_size=max_params).map(
        QoSVector
    )


# -- interval properties ---------------------------------------------------------

@given(intervals())
def test_interval_contains_itself(iv):
    assert iv.contains_interval(iv)


@given(intervals(), intervals(), intervals())
def test_interval_containment_transitive(a, b, c):
    if a.contains_interval(b) and b.contains_interval(c):
        assert a.contains_interval(c)


@given(intervals(), finite)
def test_contains_value_consistent_with_bounds(iv, x):
    assert iv.contains_value(x) == (iv.lo <= x <= iv.hi)


# -- satisfy-relation properties ----------------------------------------------

@given(qos_vectors())
def test_everything_satisfies_empty_requirement(q):
    assert satisfies(q, QoSVector())


@given(qos_vectors())
def test_empty_offer_satisfies_nothing_nonempty(q):
    if len(q) > 0:
        assert not satisfies(QoSVector(), q)


@given(qos_vectors(), qos_vectors(), qos_values)
def test_extra_offered_params_never_hurt(offered, required, extra):
    """Adding an unrelated dimension to the offer preserves satisfaction."""
    if satisfies(offered, required):
        widened = QoSVector(dict(offered.items()) | {"__extra__": extra})
        assert satisfies(widened, required)


@given(qos_vectors(), qos_vectors())
def test_dropping_requirements_never_hurts(offered, required):
    if satisfies(offered, required) and len(required) > 0:
        names = list(required)
        reduced = QoSVector({n: required[n] for n in names[:-1]})
        assert satisfies(offered, reduced)


@given(qos_vectors())
def test_satisfy_is_reflexive(q):
    """Every vector satisfies itself: single values match by equality,
    ranges contain themselves."""
    assert satisfies(q, q)


@given(qos_vectors(max_params=3), qos_vectors(max_params=3))
def test_satisfies_is_deterministic(a, b):
    assert satisfies(a, b) == satisfies(a, b)

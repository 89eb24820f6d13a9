"""Unit tests for QoS vectors and the Eq. 1 'satisfy' relation."""

import pytest

from repro.core.qos import Interval, QoSVector, satisfies


class TestInterval:
    def test_bounds(self):
        iv = Interval(10, 30)
        assert iv.lo == 10 and iv.hi == 30

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 3)

    def test_degenerate_allowed(self):
        assert Interval(5, 5).contains_value(5)

    def test_contains_value(self):
        iv = Interval(10, 30)
        assert iv.contains_value(10)
        assert iv.contains_value(30)
        assert iv.contains_value(20)
        assert not iv.contains_value(9.999)
        assert not iv.contains_value(30.001)

    def test_contains_interval(self):
        assert Interval(0, 100).contains_interval(Interval(10, 20))
        assert Interval(10, 20).contains_interval(Interval(10, 20))
        assert not Interval(10, 20).contains_interval(Interval(5, 15))
        assert not Interval(10, 20).contains_interval(Interval(15, 25))


class TestQoSVector:
    def test_mapping_protocol(self):
        q = QoSVector(format="MPEG", rate=Interval(10, 30))
        assert q["format"] == "MPEG"
        assert len(q) == 2
        assert set(q) == {"format", "rate"}

    def test_from_mapping_and_kwargs(self):
        q = QoSVector({"a": 1}, b=2)
        assert q["a"] == 1 and q["b"] == 2

    def test_kwargs_override_mapping(self):
        q = QoSVector({"a": 1}, a=9)
        assert q["a"] == 9

    def test_rejects_bad_types(self):
        with pytest.raises(TypeError):
            QoSVector(x=[1, 2])
        with pytest.raises(TypeError):
            QoSVector(x=True)

    def test_equality_and_hash(self):
        a = QoSVector(format="MPEG", q=Interval(1, 3))
        b = QoSVector(q=Interval(1, 3), format="MPEG")
        assert a == b
        assert hash(a) == hash(b)

    def test_as_tuple_sorted(self):
        q = QoSVector(b=2, a=1)
        assert q.as_tuple() == (("a", 1), ("b", 2))


class TestSatisfies:
    """Eq. 1: forall dims of Qin, the offered Qout dim must match."""

    def test_single_value_equal(self):
        assert satisfies(QoSVector(format="MPEG"), QoSVector(format="MPEG"))

    def test_single_value_unequal(self):
        assert not satisfies(QoSVector(format="JPEG"), QoSVector(format="MPEG"))

    def test_numeric_single_value(self):
        assert satisfies(QoSVector(res=480), QoSVector(res=480.0))
        assert not satisfies(QoSVector(res=480), QoSVector(res=720))

    def test_missing_dimension_fails(self):
        assert not satisfies(QoSVector(), QoSVector(format="MPEG"))

    def test_extra_offered_dimensions_ignored(self):
        offered = QoSVector(format="MPEG", extra="whatever")
        assert satisfies(offered, QoSVector(format="MPEG"))

    def test_scalar_within_required_range(self):
        assert satisfies(QoSVector(rate=20), QoSVector(rate=Interval(10, 30)))
        assert not satisfies(QoSVector(rate=35), QoSVector(rate=Interval(10, 30)))

    def test_range_within_required_range(self):
        assert satisfies(
            QoSVector(rate=Interval(15, 25)), QoSVector(rate=Interval(10, 30))
        )
        assert not satisfies(
            QoSVector(rate=Interval(5, 25)), QoSVector(rate=Interval(10, 30))
        )

    def test_range_offered_for_single_requirement(self):
        # Only a degenerate interval equals a single value.
        assert satisfies(QoSVector(rate=Interval(20, 20)), QoSVector(rate=20))
        assert not satisfies(QoSVector(rate=Interval(10, 30)), QoSVector(rate=20))

    def test_string_never_satisfies_range(self):
        assert not satisfies(QoSVector(rate="fast"), QoSVector(rate=Interval(0, 1)))

    def test_empty_requirement_always_satisfied(self):
        assert satisfies(QoSVector(), QoSVector())
        assert satisfies(QoSVector(anything=1), QoSVector())

    def test_multi_dimension_all_must_hold(self):
        offered = QoSVector(format="MPEG", rate=25, res="640x480")
        assert satisfies(
            offered,
            QoSVector(format="MPEG", rate=Interval(10, 30)),
        )
        assert not satisfies(
            offered,
            QoSVector(format="MPEG", rate=Interval(10, 20)),
        )

"""Unit tests for resource vectors, tuples and the Def. 3.1 comparison."""

import numpy as np
import pytest

from repro.core.resources import ResourceTuple, ResourceVector, WeightProfile
from tests.core.reference_kernels import compare
from tests.services.object_catalog import vector_rows

NAMES = ("cpu", "memory")


def rv(cpu, mem):
    return ResourceVector(NAMES, [cpu, mem])


def profile(w_cpu=0.4, w_mem=0.3, w_bw=0.3, maxima=(1000.0, 1000.0), bmax=1e7):
    return WeightProfile(NAMES, [w_cpu, w_mem], w_bw, maxima, bmax)


class TestResourceVector:
    def test_roundtrip(self):
        v = rv(10, 20)
        assert v.names == NAMES
        assert list(v.values) == [10.0, 20.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ResourceVector(NAMES, [1.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rv(-1, 5)

    def test_add(self):
        assert rv(1, 2) + rv(3, 4) == rv(4, 6)

    def test_dimension_mismatch_raises(self):
        other = ResourceVector(("cpu",), [1.0])
        with pytest.raises(ValueError):
            rv(1, 2) + other

    def test_ratio_to(self):
        r = rv(10, 50).ratio_to(rv(5, 100))
        assert list(r) == [2.0, 0.5]

    def test_ratio_to_zero_requirement_is_inf(self):
        r = rv(10, 50).ratio_to(rv(0, 100))
        assert r[0] == np.inf

    def test_copy_is_independent(self):
        """The constructor copies: a vector built from another's values
        does not alias them."""
        a = rv(1, 2)
        b = ResourceVector(a.names, a.values)
        b.values[0] = 99
        assert a.values[0] == 1.0

    def test_hashable(self):
        assert hash(rv(1, 2)) == hash(rv(1, 2))

    def test_rows_match_the_constructor(self):
        block = np.array([[1, 2], [3, 4]])
        rows = vector_rows(NAMES, block)
        assert rows == [rv(1, 2), rv(3, 4)]
        assert all(r.values.dtype == np.float64 for r in rows)
        block[0, 0] = 99
        assert rows[0] == rv(1, 2)

    def test_rows_check_the_whole_block(self):
        with pytest.raises(ValueError):
            vector_rows(NAMES, np.ones((2, 3)))
        with pytest.raises(ValueError):
            vector_rows(NAMES, np.ones(2))
        with pytest.raises(ValueError):
            vector_rows(NAMES, np.array([[1.0, 2.0], [3.0, -4.0]]))


class TestResourceTuple:
    def test_add(self):
        t = ResourceTuple(rv(1, 2), 100.0) + ResourceTuple(rv(3, 4), 50.0)
        assert t.resources == rv(4, 6)
        assert t.bandwidth == 150.0

    def test_zero(self):
        z = ResourceTuple.zero(NAMES)
        assert z.resources == rv(0, 0) and z.bandwidth == 0.0

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            ResourceTuple(rv(1, 1), -5.0)


class TestWeightProfile:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WeightProfile(NAMES, [0.5, 0.5], 0.5, (1000, 1000), 1e7)

    def test_normalize_flag(self):
        p = WeightProfile(NAMES, [1, 1], 2, (1000, 1000), 1e7, normalize=True)
        assert np.isclose(p.weights.sum() + p.bandwidth_weight, 1.0)
        assert p.bandwidth_weight == 0.5

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightProfile(NAMES, [-0.1, 0.6], 0.5, (1000, 1000), 1e7)

    def test_uniform(self):
        p = WeightProfile.uniform(NAMES, (1000, 1000), 1e7)
        assert np.allclose(p.weights, 1 / 3)
        assert np.isclose(p.bandwidth_weight, 1 / 3)

    def test_nonpositive_maxima_rejected(self):
        with pytest.raises(ValueError):
            profile(maxima=(0.0, 1000.0))

    def test_score_formula(self):
        p = profile(w_cpu=0.4, w_mem=0.3, w_bw=0.3, maxima=(100, 200), bmax=1000)
        t = ResourceTuple(rv(50, 100), 500)
        # 0.4*50/100 + 0.3*100/200 + 0.3*500/1000
        assert np.isclose(p.score(t), 0.2 + 0.15 + 0.15)

    def test_score_dimension_check(self):
        p = profile()
        t = ResourceTuple(ResourceVector(("cpu",), [1.0]), 0.0)
        with pytest.raises(ValueError):
            p.score(t)

    def test_compare_matches_def_3_1(self):
        p = profile()
        small = ResourceTuple(rv(10, 10), 100)
        big = ResourceTuple(rv(500, 500), 1e6)
        assert compare(p, big, small) == 1
        assert compare(p, small, big) == -1
        assert compare(p, small, small) == 0

    def test_compare_consistent_with_score(self):
        p = profile()
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = ResourceTuple(rv(*rng.uniform(0, 1000, 2)), rng.uniform(0, 1e7))
            b = ResourceTuple(rv(*rng.uniform(0, 1000, 2)), rng.uniform(0, 1e7))
            cmp_sign = compare(p, a, b)
            score_sign = np.sign(p.score(a) - p.score(b))
            assert cmp_sign == score_sign or (
                cmp_sign == 0 and abs(p.score(a) - p.score(b)) < 1e-12
            )

    def test_bandwidth_only_profile(self):
        p = WeightProfile(NAMES, [0, 0], 1.0, (1000, 1000), 1000)
        hi = ResourceTuple(rv(999, 999), 10)
        lo = ResourceTuple(rv(0, 0), 20)
        # Only bandwidth counts: 20 > 10.
        assert compare(p, lo, hi) == 1

"""Property proof that the production QCS kernel and both test-side
reference kernels compute the same function.

Hypothesis generates layered candidate sets with varying path length
(K), per-layer population (V, including empty layers), satisfaction
density (format chains that mostly -- but not always -- connect) and
score ties (resources drawn from a coarse grid so equal scalar scores
are common), then checks that

    vectorized == dijkstra == dp

on the chosen path, the float score, the aggregated resource tuple and
the ``CompositionError`` behaviour (same error, same message).  The
vectorized kernel is additionally held to its *amortized* contract: a
second compose of the same request must hit the plan cache and still
return the identical result.

This is the oracle-differential methodology of docs/performance.md: the
reference kernels (``tests/core/reference_kernels.py``) are slow but
obviously faithful to §3.2, so agreement over hundreds of adversarial
inputs is the exactness evidence for the numpy kernel.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.composition import CompositionError
from repro.core.composition_vec import VectorizedComposer, compose_qcs
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath, ServiceInstance
from tests.core import reference_kernels

NAMES = ("cpu", "memory")
WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e7)

#: Format alphabet: chains mostly connect (the drawn stage format), but
#: the generator may substitute "off" to create inconsistent instances
#: and infeasible layers.
_FORMATS = ("f0", "f1", "f2", "f3", "f4")

#: Module-global id stream so a long-lived composer never sees two
#: distinct records under one instance_id (the catalog's invariant).
_IDS = itertools.count()


@st.composite
def layered_cases(draw, min_candidates=0):
    """One composition request: path, candidates, user requirement."""
    n_services = draw(st.integers(min_value=1, max_value=4))
    services = tuple(f"svc{k}" for k in range(n_services))
    candidates = {}
    for k, service in enumerate(services):
        n_cands = draw(st.integers(min_value=min_candidates, max_value=5))
        layer = []
        for _ in range(n_cands):
            # Coarse grids make exact score ties likely, which is the
            # interesting regime for tie-break equivalence.
            cpu = draw(st.sampled_from((10.0, 20.0, 40.0, 80.0)))
            mem = draw(st.sampled_from((10.0, 20.0, 40.0, 80.0)))
            bw = draw(st.sampled_from((100.0, 200.0)))
            consistent_in = draw(st.booleans())
            consistent_out = draw(
                st.integers(min_value=0, max_value=9)
            ) < 8
            quality = draw(st.integers(min_value=1, max_value=3))
            layer.append(ServiceInstance(
                instance_id=f"i{next(_IDS)}",
                service=service,
                qin=QoSVector(
                    format=_FORMATS[k] if consistent_in else "off",
                    quality=Interval(1, 3),
                ),
                qout=QoSVector(
                    format=_FORMATS[k + 1] if consistent_out else "off",
                    quality=quality,
                ),
                resources=ResourceVector(NAMES, [cpu, mem]),
                bandwidth=bw,
            ))
        candidates[service] = layer
    min_quality = draw(st.integers(min_value=1, max_value=3))
    user_qos = QoSVector(
        format=_FORMATS[n_services],
        quality=Interval(min_quality, 3),
    )
    path = AbstractServicePath("app", services)
    return path, candidates, user_qos


def _outcome(fn, *args, **kwargs):
    """(result, None) on success, (None, message) on CompositionError."""
    try:
        return fn(*args, **kwargs), None
    except CompositionError as exc:
        return None, str(exc)


def _assert_same(case, a, a_err, b, b_err, label):
    assert a_err == b_err, (label, case, a_err, b_err)
    if a is not None:
        assert b is not None, (label, case)
        assert a.instances == b.instances, (label, case, a, b)
        assert a.score == b.score, (label, case, a.score, b.score)
        assert a.total == b.total, (label, case, a.total, b.total)


class TestThreeKernelEquivalence:
    @settings(deadline=None, max_examples=200)
    @given(case=layered_cases())
    def test_vectorized_matches_both_references(self, case):
        path, candidates, user_qos = case
        dp, dp_err = _outcome(
            reference_kernels.compose_qcs, path, candidates, user_qos,
            WEIGHTS, method="dp",
        )
        dj, dj_err = _outcome(
            reference_kernels.compose_qcs, path, candidates, user_qos,
            WEIGHTS, method="dijkstra",
        )
        vec, vec_err = _outcome(
            compose_qcs, path, candidates, user_qos, WEIGHTS
        )
        _assert_same(case, dp, dp_err, dj, dj_err, "dp-vs-dijkstra")
        _assert_same(case, dp, dp_err, vec, vec_err, "dp-vs-vectorized")

    @settings(deadline=None, max_examples=60)
    @given(case=layered_cases(min_candidates=1))
    def test_plan_cache_hit_path_is_identical(self, case):
        path, candidates, user_qos = case
        composer = VectorizedComposer(WEIGHTS)
        first, first_err = _outcome(
            composer.compose, path, candidates, user_qos
        )
        hits_before = composer.plan_stats.hits
        second, second_err = _outcome(
            composer.compose, path, candidates, user_qos
        )
        assert composer.plan_stats.hits == hits_before + 1
        _assert_same(case, first, first_err, second, second_err, "hit-path")
        dp, dp_err = _outcome(
            reference_kernels.compose_qcs, path, candidates, user_qos,
            WEIGHTS, method="dp",
        )
        _assert_same(case, dp, dp_err, second, second_err, "hit-vs-dp")


class TestTieBreaking:
    def _inst(self, service, fmt_in, fmt_out, tag):
        # Every candidate identical in score: any divergence in the
        # kernels' tie-breaking (reference: first strict improvement;
        # vectorized: argmin first occurrence) would surface here.
        return ServiceInstance(
            instance_id=f"tie/{service}/{tag}",
            service=service,
            qin=QoSVector(format=fmt_in, quality=Interval(1, 3)),
            qout=QoSVector(format=fmt_out, quality=3),
            resources=ResourceVector(NAMES, [10.0, 10.0]),
            bandwidth=100.0,
        )

    def test_all_kernels_prefer_the_first_tied_candidate(self):
        path = AbstractServicePath("app", ("a", "b"))
        candidates = {
            "a": [self._inst("a", "f0", "f1", j) for j in range(4)],
            "b": [self._inst("b", "f1", "f2", j) for j in range(4)],
        }
        user_qos = QoSVector(format="f2", quality=Interval(1, 3))
        results = [
            reference_kernels.compose_qcs(
                path, candidates, user_qos, WEIGHTS, method="dp"
            ),
            reference_kernels.compose_qcs(
                path, candidates, user_qos, WEIGHTS, method="dijkstra"
            ),
            compose_qcs(path, candidates, user_qos, WEIGHTS),
        ]
        ids = [
            tuple(i.instance_id for i in r.instances) for r in results
        ]
        assert ids[0] == ids[1] == ids[2] == ("tie/a/0", "tie/b/0")
        assert results[0].score == results[1].score == results[2].score

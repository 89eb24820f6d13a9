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

The *random* / *fixed* comparators' walk over the same plan
(``VectorizedComposer.walk``) is held, on the same generated cases and
for both choosers, to the graph walk it replaced: same instances, total
bits and score, same ``CompositionError`` cases, and the same RNG draws
(identical generator state afterwards) -- also when the second of two
user QoS vectors walks a plan the first one built.

This is the oracle-differential methodology of docs/performance.md: the
reference kernels (``tests/core/reference_kernels.py``) are slow but
obviously faithful to §3.2, so agreement over hundreds of adversarial
inputs is the exactness evidence for the numpy kernel.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.composition import CompositionError
from repro.core.composition_vec import VectorizedComposer, compose_qcs
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath
from tests.core import reference_kernels
from tests.services.reference_catalog import make_instance

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
            layer.append(make_instance(
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
        return make_instance(
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


def _same_bits(a, b):
    """Same instances, score and total, compared bit for bit."""
    assert a.instances == b.instances, (a, b)
    assert a.score.hex() == b.score.hex(), (a.score, b.score)
    assert a.total.resources.names == b.total.resources.names
    assert a.total.resources.values.tobytes() == b.total.resources.values.tobytes()
    assert a.total.bandwidth.hex() == b.total.bandwidth.hex()


class TestPlanWalkMatchesGraphWalk:
    """``VectorizedComposer.walk`` against the reference graph walk."""

    @staticmethod
    def _walks(chooser, seed):
        """The plan walk's chooser and the reference walk for one of the
        comparators, each over its own generator seeded ``seed``; and the
        two generators."""
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        if chooser == "random":
            return (
                lambda n: int(ours.integers(n)),
                lambda graph: reference_kernels.random_consistent_path(
                    graph, theirs
                ),
                ours, theirs,
            )
        return (
            lambda n: 0, reference_kernels.first_viable_path, ours, theirs
        )

    @staticmethod
    def _check(composer, case, choose, reference, ours, theirs):
        path, candidates, user_qos = case
        got, got_err = _outcome(
            composer.walk, path, candidates, user_qos, choose
        )
        want, want_err = _outcome(
            lambda: reference(reference_kernels.ConsistencyGraph(
                path, candidates, user_qos, WEIGHTS
            ))
        )
        # The two walks word their refusals differently; the cases match.
        assert (got_err is None) == (want_err is None), (case, got_err, want_err)
        if got is not None:
            _same_bits(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state
        return got_err

    @settings(deadline=None, max_examples=200)
    @given(
        case=layered_cases(),
        chooser=st.sampled_from(("random", "fixed")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_path_bits_refusals_and_draws(self, case, chooser, seed):
        walks = self._walks(chooser, seed)
        self._check(VectorizedComposer(WEIGHTS), case, *walks)

    @settings(deadline=None, max_examples=100)
    @given(
        case=layered_cases(min_candidates=1),
        second_quality=st.integers(min_value=1, max_value=3),
        chooser=st.sampled_from(("random", "fixed")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_plan_cache_hit_under_a_second_user_qos(
        self, case, second_quality, chooser, seed
    ):
        path, candidates, user_qos = case
        second = QoSVector(
            format=user_qos["format"], quality=Interval(second_quality, 3)
        )
        composer = VectorizedComposer(WEIGHTS)
        walks = self._walks(chooser, seed)
        self._check(composer, case, *walks)
        self._check(composer, (path, candidates, second), *walks)
        assert len(composer._plans) == 1

    @staticmethod
    def _inst(service, fmt_in, fmt_out):
        return make_instance(
            instance_id=f"i{next(_IDS)}",
            service=service,
            qin=QoSVector(format=fmt_in, quality=Interval(1, 3)),
            qout=QoSVector(format=fmt_out, quality=3),
            resources=ResourceVector(NAMES, [10.0, 10.0]),
            bandwidth=100.0,
        )

    def test_refusal_cases(self):
        path = AbstractServicePath("app", ("a", "b"))
        user_qos = QoSVector(format="f2", quality=Interval(1, 3))
        cases = {
            "no candidates": {"a": [], "b": [self._inst("b", "f1", "f2")]},
            "no viable sink edge": {
                "a": [self._inst("a", "f0", "f1")],
                "b": [self._inst("b", "off", "f2"),
                      self._inst("b", "f1", "off")],
            },
        }
        for chooser in ("random", "fixed"):
            for candidates in cases.values():
                walks = self._walks(chooser, 0)
                assert self._check(
                    VectorizedComposer(WEIGHTS),
                    (path, candidates, user_qos), *walks,
                ) is not None

"""Property-based tests for QCS (optimality, method agreement)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.composition import CompositionError
from repro.core.composition_vec import compose_qcs
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath
from tests.core import reference_kernels
from tests.core.reference_kernels import ConsistencyGraph, random_consistent_path
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e6)
USER = QoSVector(format="final", quality=Interval(1, 3))


@st.composite
def catalogs(draw):
    """Random layered catalogs with 2-4 services, 1-6 instances each."""
    n_services = draw(st.integers(2, 4))
    services = tuple(f"s{k}" for k in range(n_services))
    rng_seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(rng_seed)
    cat = {}
    for k, svc in enumerate(services):
        n_inst = draw(st.integers(1, 6))
        instances = []
        for j in range(n_inst):
            fmt_in = f"if{k}/{rng.integers(2)}"
            fmt_out = (
                f"if{k+1}/{rng.integers(2)}" if k < n_services - 1 else "final"
            )
            quality = int(rng.integers(1, 4))
            instances.append(
                make_instance(
                    f"{svc}/{j}",
                    svc,
                    qin=QoSVector(format=fmt_in, quality=Interval(quality, 3)),
                    qout=QoSVector(format=fmt_out, quality=quality),
                    resources=ResourceVector(NAMES, rng.uniform(1, 900, 2)),
                    bandwidth=float(rng.uniform(1e3, 9e5)),
                )
            )
        cat[svc] = instances
    return AbstractServicePath("prop", services), cat


@settings(max_examples=60, deadline=None)
@given(catalogs())
def test_dp_and_dijkstra_agree(path_cat):
    path, cat = path_cat
    try:
        a = reference_kernels.compose_qcs(path, cat, USER, WEIGHTS, method="dp")
    except CompositionError:
        try:
            reference_kernels.compose_qcs(
                path, cat, USER, WEIGHTS, method="dijkstra")
            raise AssertionError("dijkstra found a path dp did not")
        except CompositionError:
            return
    b = reference_kernels.compose_qcs(path, cat, USER, WEIGHTS, method="dijkstra")
    assert np.isclose(a.score, b.score)
    assert [i.instance_id for i in a.instances] == [
        i.instance_id for i in b.instances
    ]


@settings(max_examples=60, deadline=None)
@given(catalogs(), st.integers(0, 2**31))
def test_qcs_not_beaten_by_random_paths(path_cat, seed):
    """QCS is minimal: no random consistent path scores lower."""
    path, cat = path_cat
    try:
        best = compose_qcs(path, cat, USER, WEIGHTS)
    except CompositionError:
        return
    graph = ConsistencyGraph(path, cat, USER, WEIGHTS)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        sample = random_consistent_path(graph, rng)
        assert sample.score >= best.score - 1e-9


@settings(max_examples=60, deadline=None)
@given(catalogs())
def test_composed_path_is_qos_consistent(path_cat):
    from repro.core.qos import satisfies

    path, cat = path_cat
    try:
        composed = compose_qcs(path, cat, USER, WEIGHTS)
    except CompositionError:
        return
    chain = composed.instances
    for up, down in zip(chain, chain[1:]):
        assert satisfies(up.qout, down.qin)
    assert satisfies(chain[-1].qout, USER)


@settings(max_examples=40, deadline=None)
@given(catalogs())
def test_total_equals_sum_of_parts(path_cat):
    path, cat = path_cat
    try:
        composed = compose_qcs(path, cat, USER, WEIGHTS)
    except CompositionError:
        return
    res = np.sum([i.resources.values for i in composed.instances], axis=0)
    bw = sum(i.bandwidth for i in composed.instances)
    assert np.allclose(composed.total.resources.values, res)
    assert np.isclose(composed.total.bandwidth, bw)

"""The paper's ``O(K V^2)`` claim, tested with a counter instead of a clock.

``ConsistencyIndex.eq1_evaluations`` counts scalar Eq. 1 clause
evaluations.  Per instance pair that would be ``K * V^2`` vector checks
for a cold compose; per value class it is bounded by the *vocabulary*,

    sum over pairs, dimensions of |required values| * |offered values|
    (+ one sink row),

so it must stop growing with V once every format and quality level has
been drawn.  The catalog below has the ``compose-cold`` benchmark's
shape: 5 services per application, 8 formats per interface, 3 quality
levels, ``Qin.quality = [q, 3]`` / ``Qout.quality = q``.
"""

import numpy as np

from repro.core.composition_vec import VectorizedComposer
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath
from tests.core.test_qos_matrix import class_bound
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e6)
N_SERVICES, N_FORMATS, N_LEVELS = 5, 8, 3
SERVICES = tuple(f"s{k}" for k in range(N_SERVICES))
PATH = AbstractServicePath("work", SERVICES)
SWEEP = (16, 32, 64, 128)


def _catalog(per_layer, rng):
    def fmt(interface):
        return f"if{interface}/fmt{int(rng.integers(N_FORMATS))}"

    catalog = {}
    for k, service in enumerate(SERVICES):
        layer = []
        for j in range(per_layer):
            q = int(rng.integers(1, N_LEVELS + 1))
            layer.append(make_instance(
                f"{service}/{j}", service,
                qin=QoSVector(format=fmt(k - 1), quality=Interval(q, N_LEVELS)),
                qout=QoSVector(format=fmt(k), quality=q),
                resources=ResourceVector(NAMES, rng.uniform(1, 900, 2)),
                bandwidth=float(rng.uniform(1e3, 9e5)),
            ))
        catalog[service] = layer
    return catalog


def _class_bound(catalog, user_qos):
    """Σ_pairs Σ_dims |required values|·|offered values| + the sink row."""
    pairs = sum(
        class_bound([i.qout for i in catalog[pred]], [i.qin for i in catalog[cur]])
        for pred, cur in zip(SERVICES, SERVICES[1:])
    )
    return pairs + class_bound(
        [i.qout for i in catalog[SERVICES[-1]]], [user_qos]
    )


def test_cold_compose_work_is_bounded_by_the_vocabulary_not_by_v():
    full = _catalog(max(SWEEP), np.random.default_rng(18))
    user_qos = QoSVector(
        format=f"if{N_SERVICES - 1}/fmt0", quality=Interval(1, N_LEVELS)
    )
    saturated = (N_SERVICES - 1) * (N_FORMATS**2 + N_LEVELS**2) + (
        N_FORMATS + N_LEVELS
    )
    counts = {}
    print()
    for v in SWEEP:
        # Nested populations, so the vocabulary seen only grows with V.
        catalog = {s: layer[:v] for s, layer in full.items()}
        composer = VectorizedComposer(WEIGHTS)
        composer.compose(PATH, catalog, user_qos)
        counts[v] = composer.index.eq1_evaluations
        dense = (N_SERVICES - 1) * v * v + v
        print(f"V={v:4d}  eq1_evaluations={counts[v]:4d}  "
              f"dense K*V^2={dense:6d}  ({dense / counts[v]:.0f}x)")
        assert counts[v] == _class_bound(catalog, user_qos) <= saturated
    assert counts[16] <= counts[32] <= counts[64]
    # Saturated: doubling V again costs not one more evaluation.
    assert counts[64] == counts[128] == saturated


def test_warm_index_charges_a_new_requirement_only_its_sink_row():
    catalog = _catalog(64, np.random.default_rng(18))
    composer = VectorizedComposer(WEIGHTS)
    fmt = f"if{N_SERVICES - 1}/fmt0"
    composer.compose(PATH, catalog, QoSVector(format=fmt, quality=Interval(1, 3)))
    cold = composer.index.eq1_evaluations
    composer.compose(PATH, catalog, QoSVector(format=fmt, quality=Interval(2, 3)))
    assert 0 < composer.index.eq1_evaluations - cold <= N_FORMATS + N_LEVELS
    # ... and a plan-cache hit nothing at all.
    again = composer.index.eq1_evaluations
    composer.compose(PATH, catalog, QoSVector(format=fmt, quality=Interval(2, 3)))
    assert composer.index.eq1_evaluations == again

"""A plan over whole universes refers to the index's arrays, not copies.

When every layer of a candidate set is its service's whole universe in
admission order (rows ``arange(version)``), ``VectorizedComposer``'s plan
takes the index's adjacency matrix and score vector as they are.  That
is sound because the index publishes them read-only and replaces them,
never writes them, when a later admission grows a universe: the plan
keeps answering for the candidates it was built from.
"""

import numpy as np
import pytest

from repro.core.composition_vec import VectorizedComposer
from tests.core.reference_kernels import compose_qcs as compose_dp
from tests.core.test_composition import (
    PATH2, USER, WEIGHTS, inst, two_hop_catalog,
)


def _plan(composer, candidates):
    return composer._plan_for(PATH2, candidates)


def _same(a, b):
    return (
        [i.instance_id for i in a.instances], a.score.hex(), a.total
    ) == ([i.instance_id for i in b.instances], b.score.hex(), b.total)


def test_whole_universe_layers_alias_the_index():
    composer = VectorizedComposer(WEIGHTS)
    catalog = {k: tuple(v) for k, v in two_hop_catalog().items()}
    plan = _plan(composer, catalog)
    index = composer.index
    last, src = index.universe("last"), index.universe("src")
    assert plan.adjacency[0] is index.pair_matrix(last, src)
    assert plan.weights[0] is last.scores
    assert plan.weights[1] is src.scores
    for array in (*plan.adjacency, *plan.weights):
        assert not array.flags.writeable
    assert _same(
        composer.compose(PATH2, catalog, USER),
        compose_dp(PATH2, catalog, USER, WEIGHTS),
    )


def test_a_grown_universe_leaves_the_held_plan_intact():
    composer = VectorizedComposer(WEIGHTS)
    catalog = {k: tuple(v) for k, v in two_hop_catalog().items()}
    plan = _plan(composer, catalog)
    held = [a.copy() for a in (*plan.adjacency, *plan.weights)]
    before = composer.compose(PATH2, catalog, USER)

    # A new cheapest 'last' instance grows the index; the held plan's
    # arrays are the index's old ones, unchanged.
    grown = dict(catalog, last=(
        *catalog["last"],
        inst("last/cheapest", "last", "mid", "final", cpu=1, mem=1, bw=1),
    ))
    bigger = _plan(composer, grown)
    index = composer.index
    last, src = index.universe("last"), index.universe("src")
    assert bigger.adjacency[0] is index.pair_matrix(last, src)
    assert bigger.adjacency[0] is not plan.adjacency[0]
    for array, copy in zip((*plan.adjacency, *plan.weights), held):
        assert np.array_equal(array, copy)
    assert _same(composer.compose(PATH2, catalog, USER), before)
    assert _same(
        composer.compose(PATH2, grown, USER),
        compose_dp(PATH2, grown, USER, WEIGHTS),
    )


@pytest.mark.parametrize("layer", ["last", "src"])
def test_a_partial_layer_still_gathers(layer):
    composer = VectorizedComposer(WEIGHTS)
    catalog = {k: tuple(v) for k, v in two_hop_catalog().items()}
    _plan(composer, catalog)  # both universes hold both instances
    part = dict(catalog, **{layer: catalog[layer][1:]})
    plan = _plan(composer, part)
    index = composer.index
    last, src = index.universe("last"), index.universe("src")
    assert plan.adjacency[0] is not index.pair_matrix(last, src)
    t = 0 if layer == "last" else 1
    assert plan.weights[t] is not index.universe(layer).scores
    assert plan.weights[1 - t] is index.universe(
        "src" if layer == "last" else "last"
    ).scores
    assert _same(
        composer.compose(PATH2, part, USER),
        compose_dp(PATH2, part, USER, WEIGHTS),
    )

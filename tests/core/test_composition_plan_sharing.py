"""A plan is a candidate set: what requests may share, and what they may not.

``VectorizedComposer`` keys a plan on ``(services, candidate ids)`` and
keeps, inside the plan, one outcome per user QoS vector asked of it.  So
requests that differ only in the user's requirement now share sliced
adjacencies, score vectors and cost lists -- and must still each get the
answer a composer that shares nothing would give them.  Hypothesis
interleaves several requirements over one candidate set through one
long-lived composer and holds every compose to a fresh composer and to
the reference DP (path, ``score.hex()``, total, error text, and the
whole telemetry stream: ``n_nodes`` / ``n_edges`` ride on the events).

The unit tests pin the key itself: ids, not object identity, decide
sharing; identity only skips re-reading the ids of a tuple the composer
still holds, so a mutated ``list`` and a replaced record are both seen.
"""

from hypothesis import given, settings, strategies as st

from repro.core.composition_vec import VectorizedComposer
from repro.core.qos import Interval, QoSVector
from repro.telemetry import Telemetry
from tests.core import reference_kernels
from tests.core.test_composition import (
    PATH2, USER, WEIGHTS as UNIT_WEIGHTS, inst, two_hop_catalog,
)
from tests.core.test_composition_equivalence import (
    _FORMATS, WEIGHTS, _assert_same, _outcome, layered_cases,
)


def _stream(telemetry):
    return [event.to_json() for event in telemetry.bus]


@st.composite
def shared_plan_cases(draw):
    """One candidate set, 2-4 distinct requirements on it (the drawn one,
    other quality floors, a format nothing offers), and an interleaved
    order that asks each at least once and some again."""
    path, candidates, user_qos = draw(layered_cases())
    fmt = _FORMATS[len(path.services)]
    others = [
        QoSVector(format=f, quality=Interval(floor, 3))
        for f in (fmt, "nothing-offers-this") for floor in (1, 2, 3)
    ]
    others.remove(user_qos)
    extra = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3,
                          unique_by=lambda q: q.as_tuple()))
    users = [user_qos] + extra
    repeats = draw(st.lists(st.sampled_from(users), max_size=6))
    return path, candidates, draw(st.permutations(users + repeats))


@settings(deadline=None, max_examples=150)
@given(case=shared_plan_cases())
def test_interleaved_requirements_each_get_the_unshared_answer(case):
    path, candidates, order = case
    shared_tel = Telemetry(lambda: 0.0)
    dp_tel = Telemetry(lambda: 0.0)
    composer = VectorizedComposer(WEIGHTS)
    for user_qos in order:
        got, got_err = _outcome(
            composer.compose, path, candidates, user_qos, telemetry=shared_tel
        )
        fresh, fresh_err = _outcome(
            VectorizedComposer(WEIGHTS).compose, path, candidates, user_qos
        )
        dp, dp_err = _outcome(
            reference_kernels.compose_qcs, path, candidates, user_qos,
            WEIGHTS, method="dp", telemetry=dp_tel,
        )
        for label, ref, ref_err in (
            ("shared-vs-fresh", fresh, fresh_err), ("shared-vs-dp", dp, dp_err)
        ):
            _assert_same(case, ref, ref_err, got, got_err, label)
            if ref is not None:
                assert got.score.hex() == ref.score.hex(), (label, case)
    # Hits, QoS misses, memoised failures: one stream, event for event.
    assert _stream(shared_tel) == _stream(dp_tel)
    assert len(composer._plans) <= 1


class TestMemoisedFailure:
    def test_infeasible_between_two_feasible_re_raises_and_re_emits(self):
        catalog = two_hop_catalog()
        users = [
            USER,
            QoSVector(format="nothing-offers-this", quality=Interval(1, 3)),
            QoSVector(format="final", quality=Interval(3, 3)),
        ]
        telemetry = Telemetry(lambda: 0.0)
        composer = VectorizedComposer(UNIT_WEIGHTS)
        errors = []
        for user_qos in users + users:
            errors.append(_outcome(
                composer.compose, PATH2, catalog, user_qos, telemetry=telemetry
            )[1])
        assert [e is None for e in errors] == [True, False, True] * 2
        assert errors[1] == errors[4]
        first, again = telemetry.bus.events("qcs.failed")
        assert first.fields == again.fields
        # 1 sink + 2 + 2 nodes; the 4 src->last edges and no sink edge.
        assert (first.n_nodes, first.n_edges) == (5, 4)
        stats = composer.plan_stats
        assert (stats.hits, stats.misses, len(composer._plans)) == (3, 3, 1)


class TestTheKeyIsTheIds:
    def compose(self, composer, catalog):
        """Compose ``catalog``; returns ``(hits, misses)`` it added."""
        stats = composer.plan_stats
        before = stats.hits, stats.misses
        composer.compose(PATH2, catalog, USER)
        return stats.hits - before[0], stats.misses - before[1]

    def test_an_equal_content_new_tuple_reuses_the_plan(self):
        composer = VectorizedComposer(UNIT_WEIGHTS)
        records = {s: tuple(layer) for s, layer in two_hop_catalog().items()}
        assert self.compose(composer, records) == (0, 1)
        assert self.compose(composer, records) == (1, 0)   # same objects
        rebuilt = {s: tuple(list(layer)) for s, layer in records.items()}
        assert all(rebuilt[s] is not records[s] for s in records)
        assert self.compose(composer, rebuilt) == (1, 0)
        assert len(composer._plans) == 1

    def test_a_list_mutated_between_two_calls_is_seen(self):
        composer = VectorizedComposer(UNIT_WEIGHTS)
        catalog = two_hop_catalog()
        before = composer.compose(PATH2, catalog, USER)
        assert [i.instance_id for i in before.instances] == [
            "src/cheap", "last/cheap"
        ]
        catalog["last"].insert(
            0, inst("last/free", "last", "mid", "final", cpu=1, mem=1, bw=1)
        )
        assert self.compose(composer, catalog) == (0, 1)
        after = composer.compose(PATH2, catalog, USER)
        assert [i.instance_id for i in after.instances] == [
            "src/cheap", "last/free"
        ]
        reference = reference_kernels.compose_qcs(
            PATH2, catalog, USER, UNIT_WEIGHTS, method="dp"
        )
        assert (after.instances, after.score.hex(), after.total) == (
            reference.instances, reference.score.hex(), reference.total
        )

    def test_replacing_one_layers_record_misses(self):
        composer = VectorizedComposer(UNIT_WEIGHTS)
        records = {s: tuple(layer) for s, layer in two_hop_catalog().items()}
        assert self.compose(composer, records) == (0, 1)
        # Membership replaces the record of one service: one departure.
        changed = dict(records, src=records["src"][1:])
        assert self.compose(composer, changed) == (0, 1)
        assert self.compose(composer, changed) == (1, 0)
        assert self.compose(composer, records) == (1, 0)   # both plans held
        assert len(composer._plans) == 2

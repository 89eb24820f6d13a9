"""Property tests: the incremental consistency index never serves stale
composition state.

Generalizes the cache-invalidation suite's churn pattern to the
vectorized QCS kernel: Hypothesis drives randomized admit / depart /
compose interleavings against one *long-lived*
:class:`~repro.core.composition_vec.VectorizedComposer` (whose pair
matrices and plan cache are patched incrementally across the whole
history) and checks every compose against two from-scratch oracles --

* a fresh ``VectorizedComposer`` built for just that request (nothing
  to patch, nothing cached), and
* the reference DP kernel;

all three must agree exactly (path, score, total, error behaviour).  A
final bookkeeping check asserts the index really is incremental: the
instance universes only ever grow, and adjacency rows are patched in
(never rebuilt wholesale) as admissions land.

Pair matrices are filled per *value class* (``satisfies_matrix``), and a
patch interns only the new rows/columns against the old population --
so admissions here also bring values no earlier instance carried
(quality 4, 2.5) and a dimension name (``codec``) the index had never
seen, on either side, mid-history.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.composition import CompositionError
from repro.core.composition_vec import VectorizedComposer
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath
from tests.core.reference_kernels import compose_qcs
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e7)
SERVICES = ("stage0", "stage1", "stage2")
PATH = AbstractServicePath("app", SERVICES)

_IDS = itertools.count()

# op = (kind, a, b, c): kind 0 = admit, 1 = depart, 2/3 = compose
ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


def _mint(service_index, quality, cpu, consistent, codec_in=None,
          codec_out=None):
    k = service_index
    qin = {"format": f"f{k}", "quality": Interval(1, 3)}
    qout = {
        "format": f"f{k + 1}" if consistent else "off", "quality": quality
    }
    if codec_in is not None:  # a requirement on a brand-new dimension
        qin["codec"] = codec_in
    if codec_out is not None:  # ... and an offer of it
        qout["codec"] = codec_out
    return make_instance(
        instance_id=f"inc{next(_IDS)}",
        service=SERVICES[k],
        qin=QoSVector(qin),
        qout=QoSVector(qout),
        resources=ResourceVector(NAMES, [cpu, cpu]),
        bandwidth=100.0,
    )


#: Qualities an admission may carry: 4 and 2.5 never occur in the seed
#: membership (2.5 is inside every [c, 3] requirement for c <= 2, 4 in none).
_QUALITIES = (1, 2, 3, 4, 2.5)
_CODECS = (None, None, None, "x", "y")


def _compose_all_ways(live, candidates, user_qos):
    """(outcome, message) from the live composer and both oracles."""
    outcomes = []
    for fn in (
        lambda: live.compose(PATH, candidates, user_qos),
        lambda: VectorizedComposer(WEIGHTS).compose(
            PATH, candidates, user_qos
        ),
        lambda: compose_qcs(PATH, candidates, user_qos, WEIGHTS, method="dp"),
    ):
        try:
            outcomes.append((fn(), None))
        except CompositionError as exc:
            outcomes.append((None, str(exc)))
    return outcomes


@settings(deadline=None, max_examples=60)
@given(ops=ops_strategy, seed=st.integers(min_value=0, max_value=7))
def test_patched_index_equals_from_scratch_rebuild(ops, seed):
    live = VectorizedComposer(WEIGHTS)
    # Seed membership: two consistent instances per service, so early
    # composes generally succeed and departures bite.
    visible = {
        s: [_mint(k, 3, 10.0 * (j + 1), True) for j in range(2)]
        for k, s in enumerate(SERVICES)
    }
    for kind, a, b, c in ops:
        k = a % len(SERVICES)
        service = SERVICES[k]
        if kind == 0:  # admission: a brand-new instance becomes visible
            visible[service].append(_mint(
                k, _QUALITIES[b % 5], 10.0 * (1 + b % 8), b % 7 != 0,
                codec_in=_CODECS[(b // 5) % 5],
                codec_out=_CODECS[(b // 25) % 5],
            ))
        elif kind == 1 and len(visible[service]) > 1:  # departure
            visible[service].pop(b % len(visible[service]))
        else:  # compose against the current membership
            user = {"format": f"f{len(SERVICES)}", "quality": Interval(c, 3)}
            if kind == 3 and b % 4 == 0:
                user["codec"] = "x"
            user_qos = QoSVector(user)
            candidates = {s: list(v) for s, v in visible.items()}
            patched, scratch, reference = _compose_all_ways(
                live, candidates, user_qos
            )
            assert patched[1] == scratch[1] == reference[1], (
                patched[1], scratch[1], reference[1]
            )
            if patched[0] is not None:
                for other in (scratch[0], reference[0]):
                    assert patched[0].instances == other.instances
                    assert patched[0].score == other.score
                    assert patched[0].total == other.total
    # The long-lived index grew monotonically: every distinct instance
    # ever admitted is still registered (departures deregister nothing),
    # and any adjacency work after the seed rows arrived incrementally.
    for k, s in enumerate(SERVICES):
        uni = live.index.universe(s)
        assert uni.version == len(uni.ids) == len(set(uni.ids))


def test_admissions_patch_rows_instead_of_rebuilding():
    live = VectorizedComposer(WEIGHTS)
    visible = {
        s: [_mint(k, 3, 10.0, True)] for k, s in enumerate(SERVICES)
    }
    user_qos = QoSVector(format=f"f{len(SERVICES)}", quality=Interval(1, 3))
    live.compose(PATH, visible, user_qos)
    baseline_rows = live.index.patched_rows
    matrices = live.index.n_pair_matrices
    # One admission per service: the pair matrices must be extended by
    # exactly the new rows/columns -- one new row and one new column per
    # adjacent pair -- with no wholesale rebuild (matrix count stable).
    for k, s in enumerate(SERVICES):
        visible[s].append(_mint(k, 3, 20.0, True))
    second = live.compose(PATH, visible, user_qos)
    assert live.index.n_pair_matrices == matrices
    grown = live.index.patched_rows - baseline_rows
    assert grown == 2 * (len(SERVICES) - 1)
    # ... and the patched index still answers exactly like the oracle.
    reference = compose_qcs(PATH, visible, user_qos, WEIGHTS, method="dp")
    assert second.instances == reference.instances
    assert second.score == reference.score
    assert second.total == reference.total
    # A third wave carries an unseen value (quality 2.5) and an unseen
    # dimension name (codec) on both sides: same bookkeeping, and the
    # cheaper newcomers -- only they can feed one another's codec
    # requirement -- are what both kernels now pick.
    for k, s in enumerate(SERVICES):
        visible[s].append(_mint(
            k, 2.5, 5.0, True, codec_in="x" if k else None, codec_out="x"
        ))
    third = live.compose(PATH, visible, user_qos)
    assert live.index.n_pair_matrices == matrices
    assert live.index.patched_rows - baseline_rows == 4 * (len(SERVICES) - 1)
    reference = compose_qcs(PATH, visible, user_qos, WEIGHTS, method="dp")
    assert third.instances == reference.instances == tuple(
        visible[s][-1] for s in SERVICES
    )
    assert third.score == reference.score
    assert third.total == reference.total

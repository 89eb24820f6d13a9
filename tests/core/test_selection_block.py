"""The block selector, and a whole selection walk, against a scalar
transcription of §3.3.

``PeerSelector._select_hop_block`` is masked reductions and one
``phi_batch``; ``scalar_hop`` below is the same step written as a loop
over candidates -- uptime / covers / β filters, Eq. 4-5 (with the ratio
cap and the optional latency term) and both random fallbacks.  Hypothesis
holds the two to the same chosen peer, ``random_fallback``, ``n_known``,
Φ bit pattern and generator state afterwards.

Every drawn number is a small dyadic rational and every weight a dyadic
fraction (``m = 3`` resources: uniform weights are 1/4, latency-aware
3/16 and 1/4), so each Eq. 4 term and partial sum is exact in binary
floating point and the value cannot depend on the order -- or the fused
multiply-adds -- a matrix product happens to use: the scalar sum must
match the kernel to the last bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resources import ResourceVector
from repro.core.selection import PeerSelector, PhiWeights
from repro.faults.plan import FaultPlan, FaultSpec
from repro.grid import GridConfig, P2PGrid
from repro.probing.prober import ProbingConfig
from tests.probing.flood import flood
from tests.probing.reference_prober import patch_prober

NAMES = ("cpu", "memory", "disk")
CAP = 1e6  # selection._RATIO_CAP
UNIFORM = PhiWeights.uniform(NAMES)
LATENCY_AWARE = PhiWeights.latency_aware(NAMES)


def scalar_hop(cands, known, req, b, duration, w, rng, use_uptime):
    """``known``: ``(position, availability, beta, uptime, latency)`` rows.
    Returns ``(peer, random_fallback, n_known, phi)``."""
    if not known:
        return cands[int(rng.integers(len(cands)))], True, 0, None

    def phi(avail, beta, latency):
        total = sum(
            wi * (min(a / r, CAP) if r > 0 else CAP)
            for wi, a, r in zip(w.weights.tolist(), avail, req)
        )
        total += w.bandwidth_weight * (min(beta / b, CAP) if b > 0 else CAP)
        if w.latency_weight > 0:
            total += w.latency_weight * min(
                w.latency_ref_ms / max(latency, 1e-3), CAP
            )
        return total

    qualified = [
        row for row in known
        if (not use_uptime or row[3] >= duration)
        and all(a >= r for a, r in zip(row[1], req)) and row[2] >= b
    ]
    if not qualified:
        known_ids = {cands[row[0]] for row in known}
        unknown = [pid for pid in cands if pid not in known_ids]
        if unknown:
            pick = unknown[int(rng.integers(len(unknown)))]
            return pick, True, len(known), None
        qualified = known  # least-bad Φ beats outright failure
    scores = [phi(row[1], row[2], row[4]) for row in qualified]
    best = scores.index(max(scores))  # first maximum, like argmax
    return cands[qualified[best][0]], False, len(known), scores[best]


_quarter = st.integers(min_value=0, max_value=64).map(lambda k: k / 4)
_row = st.tuples(
    st.tuples(_quarter, _quarter, _quarter),           # availability
    st.sampled_from((0.0, 8.0, 64.0, 512.0, 4096.0)),  # beta
    st.sampled_from((0.0, 1.0, 5.0, 30.0)),            # uptime
    st.sampled_from((200.0, 150.0, 80.0, 20.0, 1.0)),  # latency
)


@st.composite
def _hops(draw):
    rows = draw(st.lists(st.one_of(st.none(), _row), min_size=1, max_size=8))
    cands = draw(st.lists(st.integers(0, 99), min_size=len(rows),
                          max_size=len(rows), unique=True))
    req = draw(st.tuples(*[st.sampled_from((0.0, 0.5, 2.0, 8.0))] * 3))
    return dict(
        cands=tuple(cands), rows=rows, req=req,
        b=draw(st.sampled_from((0.0, 8.0, 64.0, 1024.0))),
        duration=draw(st.sampled_from((0.5, 5.0, 60.0))),
        w=draw(st.sampled_from((UNIFORM, LATENCY_AWARE))),
        use_uptime=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _both(case):
    """Run the kernel and the transcription on twin generators."""
    known = [(i, *row) for i, row in enumerate(case["rows"]) if row is not None]
    w = case["w"]
    block = (
        np.array([k[0] for k in known], dtype=np.intp),
        np.array([k[1] for k in known], dtype=np.float64).reshape(-1, 3),
        np.array([k[2] for k in known], dtype=np.float64),
        np.array([k[3] for k in known], dtype=np.float64),
        np.array([k[4] for k in known], dtype=np.float64)
        if w.latency_weight > 0 else None,
    )
    selector = PeerSelector(None, w, uptime_filter=case["use_uptime"])
    rng_block = np.random.default_rng(case["seed"])
    rng_scalar = np.random.default_rng(case["seed"])
    out = selector._select_hop_block(
        case["cands"], ResourceVector(NAMES, case["req"]), case["b"],
        case["duration"], rng_block, block,
    )
    expected = scalar_hop(
        case["cands"], known, case["req"], case["b"], case["duration"], w,
        rng_scalar, case["use_uptime"],
    )
    got = (out.peer_id, out.random_fallback, out.n_known,
           None if out.phi is None else float(out.phi).hex())
    want = (*expected[:3],
            None if expected[3] is None else float(expected[3]).hex())
    assert got == want
    assert out.n_candidates == len(case["cands"])
    assert rng_block.bit_generator.state == rng_scalar.bit_generator.state
    return out


# ResourceVector.ratio_to (the single-candidate scalar Φ) computes 0/0
# before masking it with the cap when availability and requirement are
# both 0 in a dimension; the value is right, numpy still warns.
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
@settings(max_examples=400, deadline=None)
@given(case=_hops())
def test_block_selector_matches_scalar_transcription(case):
    _both(case)


def _case(rows, **over):
    case = dict(
        cands=tuple(range(10, 10 + len(rows))), rows=rows, req=(2.0, 2.0, 2.0),
        b=64.0, duration=5.0, w=UNIFORM, use_uptime=True,
        seed=7,
    )
    case.update(over)
    return case


GOOD = ((8.0, 8.0, 8.0), 512.0, 30.0, 80.0)
BETTER = ((16.0, 8.0, 8.0), 512.0, 30.0, 20.0)
YOUNG = ((16.0, 16.0, 16.0), 4096.0, 1.0, 1.0)
SMALL = ((1.0, 8.0, 8.0), 512.0, 30.0, 80.0)
THIN = ((8.0, 8.0, 8.0), 8.0, 30.0, 80.0)


def test_named_branches():
    # Φ ranking; ties go to the first maximum.
    assert _both(_case([GOOD, BETTER, None])).peer_id == 11
    assert _both(_case([GOOD, GOOD])).peer_id == 10
    # A zero requirement entry and a zero bandwidth requirement hit the cap.
    out = _both(_case([GOOD, BETTER], req=(0.0, 2.0, 2.0), b=0.0))
    assert out.phi == 0.25 * (CAP + 4.0 + 4.0 + CAP)
    # A single qualified candidate takes the scalar Φ.
    out = _both(_case([YOUNG, GOOD, SMALL, THIN]))
    assert (out.peer_id, out.phi) == (11, 0.25 * (4.0 + 4.0 + 4.0 + 8.0))
    # Nothing known: uniform over all candidates.
    assert _both(_case([None, None, None])).random_fallback
    # Everything filtered: random over the unknown ones if there are any,
    # else the filters are given up and the least-bad Φ wins.
    out = _both(_case([YOUNG, None, SMALL, None]))
    assert out.random_fallback and out.peer_id in (11, 13) and out.n_known == 2
    out = _both(_case([YOUNG, SMALL, THIN]))
    assert not out.random_fallback and out.peer_id == 10
    # The latency term reorders what uniform weights tie or rank otherwise.
    assert _both(_case([GOOD, BETTER], w=LATENCY_AWARE)).peer_id == 11
    near = ((16.0, 8.0, 8.0), 512.0, 30.0, 1.0)
    assert _both(_case([BETTER, near])).peer_id == 10
    assert _both(_case([BETTER, near], w=LATENCY_AWARE)).peer_id == 11


# -- a whole reverse-flow walk ------------------------------------------------
#
# ``QSAAggregator._select_walk`` is resolve -> observe -> filter -> Φ ->
# fallback, hop by hop, each hop run by the peer the previous one chose
# (Fig. 4).  ``scalar_walk`` is that loop with nothing array-shaped in it:
# the flood as ``(peer, hop, direct)`` triples (``tests/probing/flood.py``),
# one ``observe`` per candidate on the scalar reference prober, then
# ``scalar_hop`` above.  It
# is the only scalar selection code in the repository.  The grids are real
# ones whose capacities are floored to integers (requirements are powers
# of two and the §4.1 bandwidth classes whole numbers), so Eq. 4 stays
# exact in binary floating point as the module docstring requires.

WALK_PLAN = FaultPlan((
    FaultSpec(kind="probe_loss", rate=0.5),
    FaultSpec(kind="probe_delay", rate=0.3, delay=0.25),
    FaultSpec(kind="partition", start=1.0, end=3.0, fraction=0.4),
), name="walk")


def scalar_walk(grid, requester, hops, instances, duration, w, rng):
    """``[(peer, random_fallback, n_known, phi)]`` per hop, reverse flow."""
    probing, outcomes, current = grid.probing, [], requester
    for i, cands in enumerate(hops):
        triples = [
            (pid, j + 1, current == requester)
            for j, later in enumerate(hops[i:]) for pid in later
            if pid != current
        ]
        if triples:
            flood(probing, current, triples)
        known = []
        for position, pid in enumerate(cands):
            info = probing.observe(current, pid)
            if info is not None:
                known.append((
                    position, tuple(info.availability.values.tolist()),
                    info.bandwidth_to_observer, info.uptime, info.latency,
                ))
        req, b = instances[len(hops) - 1 - i]
        outcome = scalar_hop(cands, known, req, b, duration, w, rng, True)
        outcomes.append(outcome)
        current = outcome[0]
    return outcomes


def _walk_grid(monkeypatch, prober, seed, faulted):
    with monkeypatch.context() as patch:
        patch_prober(patch, prober)
        grid = P2PGrid(GridConfig(
            n_peers=80, resource_names=NAMES, seed=seed,
            probing=ProbingConfig(budget=6, ttl=3.0),
            faults=WALK_PLAN if faulted else None,
        ))
    store = grid.directory.store
    store.capacity[:] = np.floor(store.capacity)
    store.available[:] = store.capacity
    return grid


_walks = st.lists(
    st.tuples(
        st.integers(0, 79),                                      # requester
        st.lists(                                                # hops
            st.lists(st.integers(0, 79), min_size=1, max_size=9, unique=True),
            min_size=1, max_size=4,
        ),
        st.sampled_from((0.5, 5.0, 60.0)),                       # duration
        st.sampled_from((0.0, 0.4, 1.2)),                        # then wait
    ),
    min_size=1, max_size=6,
)


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "injector"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), walks=_walks,
       w=st.sampled_from((UNIFORM, LATENCY_AWARE)))
def test_walk_matches_scalar_transcription(faulted, seed, walks, w):
    with pytest.MonkeyPatch.context() as monkeypatch:
        kernel = _walk_grid(monkeypatch, "production", seed, faulted)
        scalar = _walk_grid(monkeypatch, "reference", seed, faulted)
    agg = kernel.make_aggregator("qsa", phi_weights=w)
    agg.rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    draw = np.random.default_rng(seed + 1)
    for requester, hops, duration, wait in walks:
        hops = [tuple(h) for h in hops]
        instances = [  # flow order, like ComposedPath.instances
            (tuple(draw.choice((0.0, 0.5, 2.0, 8.0), size=3).tolist()),
             float(draw.choice((0.0, 8.0, 1024.0))))
            for _ in hops
        ]
        agg._hop_outcomes = []
        chosen = agg._select_walk(
            SimpleNamespace(peer_id=requester, session_duration=duration),
            SimpleNamespace(instances=[
                SimpleNamespace(resources=ResourceVector(NAMES, req), bandwidth=b)
                for req, b in instances
            ]),
            hops,
            kernel.probing.selection_plan(hops),
        )
        expected = scalar_walk(scalar, requester, hops, instances, duration, w, rng)
        got = [
            (o.peer_id, o.random_fallback, o.n_known,
             None if o.phi is None else float(o.phi).hex())
            for o in agg._hop_outcomes
        ]
        want = [
            (*e[:3], None if e[3] is None else float(e[3]).hex())
            for e in expected
        ]
        assert got == want
        assert chosen == tuple(reversed([e[0] for e in expected]))
        assert agg.rng.bit_generator.state == rng.bit_generator.state
        for grid in (kernel, scalar):
            # Load the chosen peers (whole units, so Φ stays exact) and
            # let snapshots go stale / soft state expire.
            for pid in chosen:
                grid.directory.reserve(pid, ResourceVector(NAMES, (8.0, 4.0, 2.0)))
            grid.sim.run(until=grid.sim.now + wait)
        if faulted:
            assert (kernel.rngs.stream("faults").bit_generator.state
                    == scalar.rngs.stream("faults").bit_generator.state)
            assert kernel.injector.counts == scalar.injector.counts

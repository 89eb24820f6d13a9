"""One selection hop, in isolation.

``resolve_selection_hops`` + ``select_hop`` at the ``steady-paper``
shape -- 10^4 peers, ``M = 100``, a walk of three hops with 40-80
candidate hosts each -- timed for the two table states a hop meets:

* ``fresh``  -- the observer has no neighbour table yet (39 % of the
                hops of ``steady-paper``): the merge is an insert +
                eviction of the block itself, no membership search;
* ``full``   -- the observer already holds ``M`` other neighbours: the
                merge searches the table, refreshes the members and
                evicts across held and new rows.

Wall times are printed, not gated (they are host-dependent; the
repository benchmark ``bench/run.py`` is the basis for speed claims).
What is asserted is host-independent: the walk's probing work -- the
probe messages of a walk equal its distinct stale targets (none on a
repeat in the same epoch, all of them again in the next) -- its
answers: every β the walk's blocks computed equals the per-target
``available_bandwidth`` of that candidate towards the observer -- and
its dedup: a walk whose hops share peers, planned once, leaves the
tables a walk resolved hop by hop with only its own suffix planned
leaves -- and its plan's lifetime: repeated walks of one
composed path over the same host records build the plan once, a
replaced record rebuilds it, and the kept plan's arrays reject writes.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.aggregation import QSAAggregator
from repro.core.composition import ComposedPath
from repro.core.qos import QoSVector
from repro.core.resources import ResourceTuple, ResourceVector, WeightProfile
from repro.core.selection import PeerSelector, PhiWeights
from repro.experiments.reporting import banner
from repro.network.soa import SoAPeerDirectory
from repro.network.topology import NetworkModel
from repro.probing.prober import ProbingConfig, ProbingService
from repro.sim import Simulator
from tests.probing.flood import table_of
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
N_PEERS = 10_000
BUDGET = 100
N_OBSERVERS = 150
REQUIREMENT = ResourceVector(NAMES, [20.0, 20.0])
BANDWIDTH_REQ = 56e3
DURATION = 5.0


def make_plane(seed=0):
    rng = np.random.default_rng(seed)
    sim = Simulator()
    directory = SoAPeerDirectory(NAMES, initial_rows=N_PEERS)
    for _ in range(N_PEERS):
        scale = float(rng.uniform(100.0, 1000.0))
        directory.create_peer(
            ResourceVector(NAMES, [scale, scale]), 10e6,
            joined_at=-float(rng.uniform(0.0, 60.0)),
        )
    network = NetworkModel(directory, seed=seed)
    probing = ProbingService(
        sim, directory, network, ProbingConfig(budget=BUDGET)
    )
    selector = PeerSelector(probing, PhiWeights.uniform(NAMES))
    return rng, sim, probing, selector


def make_hops(rng):
    """Three ascending host tuples of 40-80 peers, like three records."""
    return [
        tuple(sorted(rng.choice(N_PEERS, size=int(rng.integers(40, 81)),
                                replace=False).tolist()))
        for _ in range(3)
    ]


def one_hop(probing, selector, observer, hops, rng, plan_entry):
    known = probing.resolve_selection_hops(
        observer, hops, direct=True, plan=plan_entry
    )
    return known, selector.select_hop(
        observer, hops[0], REQUIREMENT, BANDWIDTH_REQ, DURATION, rng,
        known=known,
    )


def walk(probing, selector, requester, hops, rng, planned=True, tables=None):
    """The aggregator's reverse-flow walk; returns (peers, known ids).

    ``planned=False`` resolves every hop without the walk's plan;
    ``tables`` collects the resolving peer's table rows after each hop.
    """
    plan = probing.selection_plan(hops) if planned else [None] * len(hops)
    current, peers, seen = requester, [], set()
    for i in range(len(hops)):
        known = probing.resolve_selection_hops(
            current, hops[i:], direct=(current == requester), plan=plan[i]
        )
        if tables is not None:
            tables.append([
                (e.peer_id, e.hop, e.direct, e.expires_at)
                for e in table_of(probing, current).entries()
            ])
        if known is not None:  # None: the observer is among its candidates
            seen.update(hops[i][p] for p in known.tolist())
        outcome = selector.select_hop(
            current, hops[i], REQUIREMENT, BANDWIDTH_REQ, DURATION, rng,
            known=known,
        )
        peers.append(outcome.peer_id)
        current = outcome.peer_id
    return peers, seen


def time_hops(full: bool, repeats=5):
    rng, sim, probing, selector = make_plane()
    hops = make_hops(rng)
    other = make_hops(rng)  # what a full table holds beforehand
    # New observers every repeat: no timed hop finds its observer's
    # table already holding the block.
    observers = [
        o for o in rng.choice(
            N_PEERS, size=repeats * N_OBSERVERS, replace=False
        ).tolist()
        if all(o not in h for h in hops + other)
    ]
    entry = probing.selection_plan(hops)[0]
    best = float("inf")
    for r in range(repeats):
        batch = observers[r::repeats]
        if full:
            for o in batch:
                probing.resolve_selection_hops(o, other, direct=False)
                assert len(table_of(probing, o)) == BUDGET
        t0 = time.perf_counter()
        for o in batch:
            one_hop(probing, selector, o, hops, rng, entry)
        best = min(best, (time.perf_counter() - t0) / len(batch))
    return best


@pytest.mark.benchmark(group="claims")
def test_selection_hop_fresh_and_full_table(benchmark):
    def run():
        return time_hops(full=False), time_hops(full=True)

    fresh, full = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(banner(
        "one resolve + select hop",
        f"{N_PEERS} peers, M = {BUDGET}, 3 hops x 40-80 candidates; "
        "microseconds per hop, best-of-5",
    ))
    print(f"fresh observer (no table) : {fresh * 1e6:8.1f}")
    print(f"observer with a full table: {full * 1e6:8.1f}")


@pytest.mark.benchmark(group="claims")
def test_selection_hop_walk_work_is_exact(benchmark, monkeypatch):
    """Host-independent: the probing work and the β of a walk."""
    blocks = []
    real = NetworkModel.available_bandwidth_batch

    def recording(self, sources, dst, uplinks=None):
        betas = real(self, sources, dst, uplinks)
        blocks.append((sources.tolist(), dst, betas.tolist()))
        return betas

    monkeypatch.setattr(NetworkModel, "available_bandwidth_batch", recording)
    rng, sim, probing, selector = make_plane(seed=3)
    hops = make_hops(rng)
    requester = next(o for o in range(N_PEERS) if all(o not in h for h in hops))

    peers, seen = benchmark.pedantic(
        walk, (probing, selector, requester, hops, rng), rounds=1, iterations=1
    )
    assert None not in peers
    # Everything known was stale (never probed): one probe per distinct
    # target, however many hops it appears in.
    assert probing.probe_messages == len(seen) > 0
    # Nothing was reserved, so each block's β (from this epoch's uplink
    # snapshots) is the live per-target β towards the observer.
    network = probing.network
    assert sum(len(sources) for sources, _, _ in blocks) > 0
    for sources, dst, betas in blocks:
        assert betas == [network.available_bandwidth(s, dst) for s in sources]

    probed = probing.probe_messages
    again, seen_again = walk(probing, selector, requester, hops, rng)
    assert again == peers and seen_again == seen
    assert probing.probe_messages == probed  # same epoch: nothing stale

    sim.run(until=sim.now + probing.config.period)  # next epoch: all stale
    walk(probing, selector, requester, hops, rng)
    assert probing.probe_messages == probed + len(seen)


@pytest.mark.benchmark(group="claims")
def test_selection_hop_walk_dedup_is_planned(benchmark):
    """Host-independent: a walk whose hops share peers, planned once,
    equals the walk planned per suffix."""

    def twin_walk(planned):
        rng, sim, probing, selector = make_plane(seed=5)
        hops = make_hops(rng)
        # One peer in every hop, and a peer of hop 2 again in hop 3.
        shared, again = hops[0][0], hops[1][-1]
        hops = [hops[0], tuple(sorted({*hops[1], shared})),
                tuple(sorted({*hops[2], shared, again}))]
        assert all(e[2] is not None for e in probing.selection_plan(hops)[:2])
        requester = next(
            o for o in range(N_PEERS) if all(o not in h for h in hops)
        )
        tables = []
        peers, _ = walk(probing, selector, requester, hops, rng, planned, tables)
        return peers, tables

    planned = benchmark.pedantic(twin_walk, (True,), rounds=1, iterations=1)
    assert None not in planned[0]
    # The same walk with every hop planning only its own suffix.
    assert twin_walk(False) == planned


def make_walker(seed):
    """A plane, three host records and a QSA aggregator walking them."""
    rng, sim, probing, selector = make_plane(seed)
    hops = make_hops(rng)
    agg = QSAAggregator(
        None, None, probing.directory, None, probing,
        WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e7),
        PhiWeights.uniform(NAMES), rng,
    )
    fmt = QoSVector(format="raw")
    composed = ComposedPath(
        tuple(
            make_instance(f"s{k}/0", f"s{k}", fmt, fmt, REQUIREMENT,
                            BANDWIDTH_REQ)
            for k in range(len(hops))
        ),
        total=ResourceTuple.zero(NAMES), score=0.0,
    )
    requester = next(o for o in range(N_PEERS) if all(o not in h for h in hops))
    request = SimpleNamespace(peer_id=requester, session_duration=DURATION)
    return agg, composed, request, hops


@pytest.mark.benchmark(group="claims")
def test_selection_hop_walk_plan_is_kept_per_path(benchmark, monkeypatch):
    """Host-independent: one plan per (path, host records), read-only."""
    built = []
    real = ProbingService.selection_plan

    def counting(self, hop_candidates):
        built.append(hop_candidates)
        return real(self, hop_candidates)

    monkeypatch.setattr(ProbingService, "selection_plan", counting)
    agg, composed, request, hops = make_walker(seed=7)

    def walks(n):
        return [agg.select_peers(request, composed, list(hops))
                for _ in range(n)]

    peers = benchmark.pedantic(walks, (5,), rounds=1, iterations=1)
    assert len(built) == 1 and None not in peers[0]
    plan = composed._walk
    print(f"\nkept walk plan: {plan.nbytes} bytes for "
          f"{sum(map(len, hops))} candidate hosts")

    # One record replaced by an equal but new tuple: rebuilt once, kept.
    hops[1] = tuple(list(hops[1]))
    walks(3)
    assert len(built) == 2 and built[-1][1] is hops[1]
    assert composed._walk is not plan

    arrays = [composed._walk.flat]
    for ids, prio, first in composed._walk:
        arrays.append(ids)
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0

    # The same walks with a plan built per walk choose the same peers.
    monkeypatch.setattr(
        ComposedPath, "walk_plan", lambda self, hosts, build: build(hosts)
    )
    twin, twin_path, twin_request, twin_hops = make_walker(seed=7)
    assert twin_hops[1] == hops[1]
    assert peers == [
        twin.select_peers(twin_request, twin_path, list(twin_hops))
        for _ in range(5)
    ]
    assert len(built) == 2 + 5

"""Equivalence tests for the probing-plane fast paths.

``resolve_selection_hops``'s fast path pre-trims the triple list before
the neighbor table sees it, and ``observe_many`` batches the per-target
loop of ``observe``.  Both are claimed *exact*: identical table state
(contents AND iteration order, which future evictions depend on) and
identical PeerInfo streams.  These tests drive randomized schedules
through a fast and a slow instance side by side.
"""

import numpy as np

from repro.core.selection import PhiWeights
from repro.grid import GridConfig, P2PGrid
from repro.probing.prober import ProbingService


def _table_state(service):
    return {
        observer: [(e.peer_id, e.hop, e.direct, e.expires_at)
                   for e in tbl.entries()]
        for observer, tbl in service._tables.items()
    }


def test_resolve_selection_hops_fast_path_is_exact():
    grid = P2PGrid(GridConfig(n_peers=120, seed=5))
    slow = ProbingService(
        grid.sim, grid.directory, grid.network, grid.probing.config
    )
    slow.fast_paths = False
    fast = grid.probing
    assert fast.fast_paths

    rng = np.random.default_rng(42)
    pids = list(grid.directory.alive_ids)
    for step in range(200):
        observer = int(rng.choice(pids))
        n_hops = int(rng.integers(1, 5))
        hop_candidates = [
            [int(p) for p in rng.choice(pids, size=rng.integers(1, 30))]
            for _ in range(n_hops)
        ]
        direct = bool(rng.integers(0, 2))
        fast.resolve_selection_hops(observer, hop_candidates, direct)
        slow.resolve_selection_hops(observer, hop_candidates, direct)
        if step % 20 == 19:
            grid.sim.run(until=grid.sim.now + 2.0)  # let soft state age
        assert _table_state(fast) == _table_state(slow)


def test_observe_many_matches_scalar_observe():
    _check_block_and_many_match_scalar(latency_weighted=False)
    _check_block_and_many_match_scalar(latency_weighted=True)


def _check_block_and_many_match_scalar(latency_weighted):
    grid = P2PGrid(GridConfig(n_peers=120, seed=5))
    prober = grid.probing
    agg = grid.make_aggregator("qsa")
    if latency_weighted:
        # A latency-weighted Φ makes the selector ask observe_block for
        # latencies; the default Φ never does.
        agg.selector.weights = PhiWeights.latency_aware(
            grid.directory.resource_names
        )
    rng = np.random.default_rng(7)
    for _ in range(10):  # populate tables + snapshots through real traffic
        req = grid.make_request("video-on-demand", qos_level="average",
                                duration=3.0)
        agg.aggregate(req)
    grid.sim.run(until=grid.sim.now + 1.5)  # next epoch: snapshots go stale
    observers = [o for o, t in prober._tables.items() if len(t)]
    assert observers
    pids = list(grid.directory.alive_ids)
    for observer in observers:
        targets = ([int(p) for p in rng.choice(pids, size=20)]
                   + [e.peer_id for e in prober.table(observer).entries()][:10])
        # The block first: it probes the stale rows, the scalar chain
        # then reads the same epoch snapshot.
        known, avail, betas, uptimes, lats = prober.observe_block(
            observer, targets, latency=latency_weighted
        )
        assert (lats is not None) == latency_weighted
        batched = prober.observe_many(observer, targets)
        scalar = [prober.observe(observer, t) for t in targets]
        assert len(batched) == len(scalar)
        assert known.tolist() == [
            i for i, s in enumerate(scalar) if s is not None
        ]
        for j, i in enumerate(known.tolist()):
            assert betas[j] == scalar[i].bandwidth_to_observer
            assert uptimes[j] == scalar[i].uptime
            assert np.array_equal(avail[j], scalar[i].availability.values)
            if latency_weighted:
                assert lats[j] == scalar[i].latency
        for b, s in zip(batched, scalar):
            if s is None:
                assert b is None
                continue
            assert b is not None
            assert b.peer_id == s.peer_id
            assert b.bandwidth_to_observer == s.bandwidth_to_observer
            assert b.uptime == s.uptime
            assert b.latency == s.latency
            assert b.availability.names == s.availability.names
            assert np.array_equal(b.availability.values,
                                  s.availability.values)

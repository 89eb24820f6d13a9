"""Equivalence tests for the probing plane's block paths.

``resolve_selection_hops`` merges a whole candidate flood into the
observer's table as one array block, and ``observe_block`` batches the
per-target loop of ``observe``.  Both are claimed *exact*: identical
table state (contents AND iteration order, which future evictions
depend on) and identical observed values.  These tests drive randomized
schedules through the block path and an independent scalar one side by
side.
"""

import numpy as np

from repro.core.selection import PhiWeights
from repro.grid import GridConfig, P2PGrid
from tests.probing.flood import table_of
from tests.probing.reference_prober import ReferenceProber, patch_prober
from tests.probing.reference_table import NeighborTable as ReferenceTable


def _table_state(service):
    return {
        observer: _rows(tbl) for observer, tbl in service._tables.items()
    }


def _rows(table):
    return [(e.peer_id, e.hop, e.direct, e.expires_at) for e in table.entries()]


def test_resolve_selection_hops_fast_path_is_exact():
    """The block merge against one dict-of-objects reference table per
    observer, fed the triples the flood means: every candidate but the
    observer itself, hop ``i + 1`` for ``hop_candidates[i]``."""
    grid = P2PGrid(GridConfig(n_peers=120, seed=5))
    probing = grid.probing
    budget, ttl = probing.config.budget, probing.config.ttl
    reference = {}

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
        probing.resolve_selection_hops(observer, hop_candidates, direct)
        triples = [
            (pid, i + 1, direct)
            for i, cands in enumerate(hop_candidates)
            for pid in cands
            if pid != observer
        ]
        if triples:
            reference.setdefault(observer, ReferenceTable(budget)).resolve(
                triples, grid.sim.now, ttl
            )
        if step % 20 == 19:
            grid.sim.run(until=grid.sim.now + 2.0)  # let soft state age
        assert _table_state(probing) == {
            observer: _rows(tbl) for observer, tbl in reference.items()
        }


def test_observe_many_matches_scalar_observe(monkeypatch):
    _check_block_matches_reference_scalar(monkeypatch, latency_weighted=False)
    _check_block_matches_reference_scalar(monkeypatch, latency_weighted=True)


def _twin(monkeypatch, prober, latency_weighted):
    with monkeypatch.context() as patch:
        patch_prober(patch, prober)
        grid = P2PGrid(GridConfig(n_peers=120, seed=5))
    agg = grid.make_aggregator("qsa")
    if latency_weighted:
        # A latency-weighted Φ makes the selector ask observe_block for
        # latencies; the default Φ never does.
        agg.selector.weights = PhiWeights.latency_aware(
            grid.directory.resource_names
        )
    for _ in range(10):  # populate tables + snapshots through real traffic
        req = grid.make_request("video-on-demand", qos_level="average",
                                duration=3.0)
        agg.aggregate(req)
    grid.sim.run(until=grid.sim.now + 1.5)  # next epoch: snapshots go stale
    return grid.probing


def _check_block_matches_reference_scalar(monkeypatch, latency_weighted):
    """The array plane's block against the reference prober's scalar chain
    (per-peer ``_Snapshot`` objects, ``get`` one target at a time) on a
    twin grid driven by the same seeded traffic."""
    block_side = _twin(monkeypatch, "production", latency_weighted)
    scalar_side = _twin(monkeypatch, "reference", latency_weighted)
    assert not isinstance(block_side, ReferenceProber)
    assert isinstance(scalar_side, ReferenceProber)
    assert _table_state(block_side) == _table_state(scalar_side)
    observers = [o for o, t in block_side._tables.items() if len(t)]
    assert observers
    rng = np.random.default_rng(7)
    pids = list(block_side.directory.alive_ids)
    for observer in observers:
        targets = ([int(p) for p in rng.choice(pids, size=20)]
                   + [e.peer_id for e in table_of(block_side, observer).entries()][:10])
        known, avail, betas, uptimes, lats = block_side.observe_block(
            observer, targets, latency=latency_weighted
        )
        assert (lats is not None) == latency_weighted
        scalar = [scalar_side.observe(observer, t) for t in targets]
        assert known.tolist() == [
            i for i, s in enumerate(scalar) if s is not None
        ]
        for j, i in enumerate(known.tolist()):
            assert scalar[i].peer_id == targets[i]
            assert betas[j] == scalar[i].bandwidth_to_observer
            assert uptimes[j] == scalar[i].uptime
            assert np.array_equal(avail[j], scalar[i].availability.values)
            if latency_weighted:
                assert lats[j] == scalar[i].latency
        # The array plane's own scalar view is a one-target block.
        for i, t in enumerate(targets):
            own = block_side.observe(observer, t)
            assert (own is None) == (scalar[i] is None)
            if own is not None:
                assert own.peer_id == t
                assert own.bandwidth_to_observer == scalar[i].bandwidth_to_observer
                assert own.uptime == scalar[i].uptime
                assert own.latency == scalar[i].latency
                assert own.availability.names == scalar[i].availability.names
                assert np.array_equal(own.availability.values,
                                      scalar[i].availability.values)
        assert block_side.probe_messages == scalar_side.probe_messages
    assert _table_state(block_side) == _table_state(scalar_side)

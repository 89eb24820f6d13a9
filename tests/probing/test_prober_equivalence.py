"""The array probing plane against its scalar specification, hop by hop.

``ProbingService`` observes a hop's candidates as one block on the peer
store's snapshot rows -- and, since PR 23, does so with a fault injector
attached too: a partition is a mask, a ghost a kept row, a lost probe a
row left (or re-stamped) in place.  ``tests/probing/reference_prober.py``
is the one-target-at-a-time plane it replaced.  Hypothesis drives the two
on twin grids -- same seed, same churn, same fault plan, same schedule of
requests, clock advances and direct observations (repeated, departed and
never-resolved targets included) -- and requires, per observed block, the
same ``(known, avail, β, uptime, latency)`` bits, and after every step

* the same ``fault.injected`` / ``retry.attempt`` / ``retry.exhausted`` /
  ``probe.refresh`` event sequence (fields and timestamps included),
* the same ``probe_messages`` and ``resolution_messages``,
* the same neighbour-table rows, in order, at every observer,
* the same ``faults``-stream generator state and injector tallies.

Plans draw every kind in ``FAULT_KINDS`` -- ``probe_delay`` with delays on
both sides of the probe timeout, loss rates high enough that retry budgets
run dry with and without an earlier snapshot, ``stale_state`` ghosts that
outlive and fall short of the schedule, and a partition window that opens
and closes mid-run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.selection import PhiWeights
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig
from repro.probing.prober import ProbingConfig
from tests.probing.reference_prober import PROBERS, ReferenceProber, patch_prober

_PROBE_EVENTS = {
    "fault.injected", "retry.attempt", "retry.exhausted", "probe.refresh",
}

_rate = st.sampled_from((0.0, 0.2, 0.6, 0.9))


@st.composite
def _plans(draw):
    """Every kind at once, or a drawn non-empty subset of the kinds."""
    start = draw(st.sampled_from((0.0, 1.0, 2.5)))
    specs = {
        "probe_loss": FaultSpec(kind="probe_loss", rate=draw(_rate)),
        "probe_delay": FaultSpec(
            kind="probe_delay", rate=draw(_rate),
            delay=draw(st.sampled_from((0.05, 0.25, 1.0))),
        ),
        "lookup_failure": FaultSpec(kind="lookup_failure", rate=0.1),
        "admission_failure": FaultSpec(kind="admission_failure", rate=0.1),
        "stale_state": FaultSpec(
            kind="stale_state", rate=draw(st.sampled_from((0.5, 1.0))),
            staleness=draw(st.sampled_from((0.5, 2.0, 50.0))),
        ),
        "partition": FaultSpec(
            kind="partition", start=start,
            end=start + draw(st.sampled_from((1.5, 3.0))),
            fraction=draw(st.sampled_from((0.2, 0.5))),
        ),
    }
    assert set(specs) == set(FAULT_KINDS)
    kinds = draw(st.one_of(
        st.just(sorted(specs)),
        st.lists(st.sampled_from(sorted(specs)), min_size=1, unique=True),
    ))
    return FaultPlan(tuple(specs[k] for k in sorted(kinds)), name="drawn")


_steps = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.integers(0, 9),
                  st.sampled_from((0.5, 2.0, 6.0))),
        st.tuples(st.just("advance"), st.sampled_from((0.3, 1.0, 2.2))),
        # (observer pick, target picks) as fractions of what exists.
        st.tuples(
            st.just("observe"), st.floats(0.0, 1.0),
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        ),
    ),
    min_size=4, max_size=14,
)


class _Side:
    """One grid with its prober's blocks recorded as they are returned."""

    def __init__(self, prober, config, latency_aware):
        with pytest.MonkeyPatch.context() as patch:
            patch_prober(patch, prober)
            self.grid = P2PGrid(config)
        self.probing = self.grid.probing
        self.agg = self.grid.make_aggregator("qsa")
        if latency_aware:
            self.agg.selector.weights = PhiWeights.latency_aware(
                self.grid.directory.resource_names
            )
        self.blocks = []
        observe_block = self.probing.observe_block

        def recording(observer, targets, latency=False, known=None):
            block = observe_block(observer, targets, latency=latency, known=known)
            self.blocks.append((observer, tuple(targets), latency, block))
            return block

        self.probing.observe_block = recording

    def state(self):
        grid, probing = self.grid, self.probing
        return {
            "events": [
                (e.name, e.time, sorted(e.fields.items()))
                for e in grid.telemetry.bus
                if e.name in _PROBE_EVENTS
            ],
            "probe_messages": probing.probe_messages,
            "resolution_messages": probing.resolution_messages,
            "tables": {
                observer: list(zip(
                    tbl.pids.tolist(), tbl.prio.tolist(), tbl.expires.tolist()
                ))
                for observer, tbl in probing._tables.items()
            },
            "faults_rng": grid.rngs.stream("faults").bit_generator.state,
            "injected": sorted(grid.injector.counts.items()),
            "retries": (grid.injector.n_retries, grid.injector.n_exhausted),
            "alive": list(grid.directory.alive_ids),
            "now": grid.sim.now,
        }


def _block_bits(block):
    known, avail, betas, uptimes, latencies = block
    return (
        known.tolist(), avail.shape, avail.tobytes(), betas.tobytes(),
        uptimes.tobytes(), None if latencies is None else latencies.tobytes(),
    )


def _apply(side, step, apps):
    grid = side.grid
    if step[0] == "request":
        _, app, duration = step
        side.agg.aggregate(
            grid.make_request(apps[app % len(apps)], duration=duration)
        )
    elif step[0] == "advance":
        grid.sim.run(until=grid.sim.now + step[1])
    else:
        _, o, picks = step
        # An observer that holds a table, and the first one whose table
        # still names a departed peer (a ghost, or a death to discover);
        # targets from every id ever allocated, repeats allowed, plus the
        # observer's own rows.
        directory, tables = grid.directory, side.probing._tables
        n_ids = directory._next_id  # every id ever allocated
        holders = sorted(tables) or [0]
        observers = [holders[min(int(o * len(holders)), len(holders) - 1)]]
        observers += [
            h for h in sorted(tables)
            if not all(map(directory.is_alive, tables[h].pids.tolist()))
        ][:1]
        for observer in observers:
            targets = [min(int(p * n_ids), n_ids - 1) for p in picks]
            tbl = tables.get(observer)
            if tbl is not None:
                held = tbl.pids.tolist()
                gone = [p for p in held if not directory.is_alive(p)]
                targets += held[:6] + gone[:4] + held[:2]
            side.probing.observe_block(observer, targets, latency=True)


def _step_both(new, ref, step, apps):
    """Apply ``step`` to both sides and hold them together; returns the
    production side's blocks of this step."""
    _apply(new, step, apps)
    _apply(ref, step, apps)
    assert len(new.blocks) == len(ref.blocks)
    for got, want in zip(new.blocks, ref.blocks):
        assert got[:3] == want[:3]  # same hop asked for
        assert _block_bits(got[3]) == _block_bits(want[3])
    blocks = list(new.blocks)
    new.blocks.clear()
    ref.blocks.clear()
    assert new.state() == ref.state()
    return blocks


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_peers=st.integers(60, 140),
    budget=st.integers(3, 16),
    ttl=st.sampled_from((1.5, 4.0, 10.0)),
    churn=st.sampled_from((0.0, 6.0, 20.0)),
    plan=_plans(),
    latency_aware=st.booleans(),
    steps=_steps,
)
def test_array_plane_matches_the_scalar_reference(
    seed, n_peers, budget, ttl, churn, plan, latency_aware, steps
):
    config = GridConfig(
        n_peers=n_peers,
        probing=ProbingConfig(budget=budget, ttl=ttl),
        churn=ChurnConfig(rate_per_min=churn) if churn else None,
        faults=plan,
        telemetry=True,
        seed=seed,
    )
    new = _Side("production", config, latency_aware)
    ref = _Side("reference", config, latency_aware)
    assert isinstance(ref.probing, ReferenceProber)
    assert not isinstance(new.probing, ReferenceProber)
    apps = [a.name for a in new.grid.applications]
    for step in steps:
        _step_both(new, ref, step, apps)
    # Nothing of the reference's per-peer snapshot plane exists in production.
    assert not hasattr(new.probing, "_snapshots")


def test_every_fault_kind_reaches_the_probing_plane():
    """The suite above is only as good as what its plans trigger: one fixed
    heavy schedule must inject at the probe site for each kind that has
    one, exhaust retry budgets with and without an earlier snapshot, and
    serve a ghost row."""
    plan = FaultPlan((
        FaultSpec(kind="probe_loss", rate=0.6),
        FaultSpec(kind="probe_delay", rate=0.5, delay=0.25),
        FaultSpec(kind="stale_state", rate=1.0, staleness=50.0),
        FaultSpec(kind="partition", start=1.0, end=4.0, fraction=0.5),
    ))
    config = GridConfig(
        n_peers=100, probing=ProbingConfig(budget=12),
        churn=ChurnConfig(rate_per_min=10.0), faults=plan, telemetry=True,
        seed=4,
    )
    new, ref = (_Side(p, config, False) for p in PROBERS)
    apps = [a.name for a in new.grid.applications]
    served_ghost = False
    for i in range(60):
        steps = [("request", i, 2.0), ("advance", 0.25),
                 ("observe", 0.37 * i % 1.0, [0.11 * k % 1.0 for k in range(8)])]
        for step in steps:
            for _, targets, _, block in _step_both(new, ref, step, apps):
                served_ghost |= any(
                    not new.grid.directory.is_alive(targets[i])
                    for i in block[0].tolist()
                )
    kinds = {kind for (kind, site), n in new.grid.injector.counts.items()
             if site == "probe" and n}
    assert kinds == {"probe_loss", "probe_delay", "stale_state", "partition"}
    assert new.grid.injector.n_exhausted > 0
    assert served_ghost
    assert np.any(new.grid.directory.store.snap_epoch >= 0)

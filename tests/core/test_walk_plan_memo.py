"""The walk plan a composed path keeps is never stale, and never extra.

``QSAAggregator.select_peers`` asks ``ComposedPath.walk_plan`` for the
selection walk's plan: the one the path keeps while every host record is
the very tuple the plan was built from, else a fresh
``ProbingService.selection_plan``.  Under churn the registry keeps
replacing records, so the smoke grid is run churned, seeds 0-2, and
every walk is checked:

* the plan it walks is entry for entry a fresh plan of the records the
  registry returned for this request (ids, priorities, dtypes, masks and
  ``None``\\ s), and leads each hop with that hop's record;
* the run's decisions equal those of a run that rebuilds the plan at
  every walk;
* at sampled walks, the live plans are no more than the live paths.
"""

import gc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.aggregation import QSAAggregator
from repro.core.composition import ComposedPath
from repro.experiments.config import SCENARIOS
from repro.experiments.runner import run_experiment
from repro.network.churn import ChurnConfig
from repro.probing.prober import SelectionPlan


def _churned_smoke(seed):
    config = SCENARIOS["smoke"](seed)
    return replace(
        config, grid=replace(config.grid, churn=ChurnConfig(rate_per_min=25.0))
    )


def _recording(results):
    def make(grid):
        aggregator = grid.make_aggregator("qsa")
        aggregate = aggregator.aggregate

        def recorded(request):
            result = aggregate(request)
            results.append((
                result.status.value, result.peers,
                None if result.composed is None else [
                    i.instance_id for i in result.composed.instances
                ],
            ))
            return result

        aggregator.aggregate = recorded
        return aggregator

    return make


def _assert_entry_equal(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if want[2] is None:
        assert got[2] is None
    else:
        assert got[2] is not None and got[2].dtype == want[2].dtype
        assert np.array_equal(got[2], want[2])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kept_plans_are_fresh_plans_under_churn(seed, monkeypatch):
    walk = QSAAggregator._select_walk
    stats = {"walks": 0, "built": 0, "paths": {}, "samples": 0}

    def checked(self, request, composed, hosts, plan):
        assert plan.built_from(hosts)
        fresh = SelectionPlan(hosts)
        assert len(plan) == len(fresh) == len(hosts)
        for i, hop in enumerate(hosts):
            _assert_entry_equal(plan[i], fresh[i])
            assert plan[i][0][:len(hop)].tolist() == list(hop)
        del fresh
        stats["walks"] += 1
        seen = stats["paths"].setdefault(id(composed), set())
        if id(plan) not in seen:
            seen.add(id(plan))
            stats["built"] += 1
        if stats["walks"] % 40 == 1:
            stats["samples"] += 1
            live = gc.get_objects()
            plans = sum(type(o) is SelectionPlan for o in live)
            paths = sum(type(o) is ComposedPath for o in live)
            assert 0 < plans <= paths
        return walk(self, request, composed, hosts, plan)

    kept = []
    with monkeypatch.context() as patch:
        patch.setattr(QSAAggregator, "_select_walk", checked)
        result = run_experiment(
            _churned_smoke(seed), make_aggregator=_recording(kept)
        )
    assert result.n_departures > 0
    assert stats["samples"] > 1
    # Plans were both kept (fewer builds than walks) and rebuilt when a
    # path's records were replaced (some path walked more than one plan).
    # ``id`` reuse can only undercount either, so both are lower bounds.
    assert stats["built"] < stats["walks"]
    assert any(len(plans) > 1 for plans in stats["paths"].values())

    rebuilt = []
    with monkeypatch.context() as patch:
        patch.setattr(
            ComposedPath, "walk_plan", lambda self, hosts, build: build(hosts)
        )
        run_experiment(_churned_smoke(seed), make_aggregator=_recording(rebuilt))
    assert kept == rebuilt

"""Whole-system determinism: identical seeds give identical runs.

Paired-comparison methodology (Fig. 5-8 run the three algorithms on the
"same" grid) relies on this: all randomness flows from named streams, so
a seed pins every draw, and simultaneous events fire FIFO.
"""


import pytest

import repro.grid
from repro.core.selection import PhiWeights
from repro.experiments.config import SCENARIOS, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.grid import GridConfig, P2PGrid
from repro.network.churn import ChurnConfig
from repro.network.topology import NetworkModel
from repro.services.qoscompiler import QoSCompiler
from repro.workload.generator import WorkloadConfig
from tests.lookup.can import CanNetwork, can_ring
from tests.sim.test_rng import fresh


def config(seed=0, churn=0.0):
    return ExperimentConfig(
        grid=GridConfig(
            n_peers=200,
            seed=seed,
            churn=ChurnConfig(rate_per_min=churn) if churn else None,
        ),
        workload=WorkloadConfig(rate_per_min=25.0, horizon=5.0,
                                duration_range=(1.0, 4.0)),
    )


def fingerprint(result):
    return (
        result.n_requests,
        result.success_ratio,
        tuple(sorted(result.metrics.breakdown().items())),
        result.mean_lookup_hops,
    )


class TestRunDeterminism:
    @pytest.mark.parametrize("algorithm", ["qsa", "random", "fixed"])
    def test_identical_runs(self, algorithm):
        a = run_experiment(config().with_algorithm(algorithm))
        b = run_experiment(config().with_algorithm(algorithm))
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.slow
    def test_identical_under_churn(self):
        a = run_experiment(config(churn=5.0).with_algorithm("qsa"))
        b = run_experiment(config(churn=5.0).with_algorithm("qsa"))
        assert fingerprint(a) == fingerprint(b)
        assert (a.n_arrivals, a.n_departures) == (b.n_arrivals, b.n_departures)

    @pytest.mark.slow
    def test_identical_on_can(self, monkeypatch):
        monkeypatch.setattr(repro.grid, "ChordRing", can_ring)
        a = run_experiment(config().with_algorithm("qsa"))
        b = run_experiment(config().with_algorithm("qsa"))
        assert isinstance(P2PGrid(a.config.grid).ring, CanNetwork)
        assert fingerprint(a) == fingerprint(b)

    def test_different_seed_different_run(self):
        a = run_experiment(config(seed=1).with_algorithm("qsa"))
        b = run_experiment(config(seed=2).with_algorithm("qsa"))
        assert fingerprint(a) != fingerprint(b)


class TestPairedWorkloads:
    def test_same_request_sequence_across_algorithms(self):
        """The workload stream is identical no matter which algorithm
        consumes it (the paired-comparison prerequisite)."""
        streams = {}
        for algorithm in ("qsa", "random"):
            grid = P2PGrid(config().grid)
            from repro.workload.generator import RequestGenerator

            seen = []
            gen = RequestGenerator(
                grid.sim, config().workload, grid.applications,
                alive_peer_ids=lambda g=grid: g.directory.alive_ids,
                sink=seen.append,
                rng=grid.rngs.stream("workload"),
            )
            agg = grid.make_aggregator(algorithm)  # draws from its own stream
            gen.start()
            grid.sim.run()
            streams[algorithm] = [
                (r.arrival_time, r.peer_id, r.application, r.qos_level,
                 r.session_duration)
                for r in seen
            ]
        assert streams["qsa"] == streams["random"]

    def test_same_catalog_across_algorithms(self):
        grids = [P2PGrid(config().grid) for _ in range(2)]
        a, b = grids
        assert set(a.catalog.instances) == set(b.catalog.instances)
        for iid in a.catalog.instances:
            assert a.catalog.instances[iid].qout == b.catalog.instances[iid].qout
            assert a.catalog.hosts(iid) == b.catalog.hosts(iid)

    def test_aggregator_streams_are_isolated(self):
        """Draw order in one algorithm's stream cannot perturb another's."""
        grid = P2PGrid(config().grid)
        qsa_rng_a = fresh(grid.rngs, "aggregator-qsa")
        # Consume heavily from the random algorithm's stream.
        grid.rngs.stream("aggregator-random").random(10_000)
        qsa_rng_b = fresh(grid.rngs, "aggregator-qsa")
        assert (qsa_rng_a.random(8) == qsa_rng_b.random(8)).all()


class TestCompilerStream:
    """The compiler draws unset output formats from its own stream, so
    the user QoS a request compiles to depends on the request sequence
    alone -- not on the algorithm, on Φ or on the pair classes selection
    saw (all of which change how many draws selection takes)."""

    @staticmethod
    def _smoke(monkeypatch, algorithm="qsa"):
        """Every ``(request_id, user QoS)`` the seeded ``smoke`` run
        compiles, and its ``composition-failed`` count."""
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        compiled = []
        real = QoSCompiler.compile

        def recording(self, request):
            path, user_qos = real(self, request)
            compiled.append((request.request_id, user_qos.as_tuple()))
            return path, user_qos

        with monkeypatch.context() as patch:
            patch.setattr(QoSCompiler, "compile", recording)
            result = run_experiment(
                SCENARIOS["smoke"](0).with_algorithm(algorithm)
            )
        return compiled, result.metrics.breakdown()["composition-failed"]

    def test_three_algorithms_compile_the_same_requests(self, monkeypatch):
        qsa = self._smoke(monkeypatch)
        assert len(qsa[0]) == 271
        for algorithm in ("random", "fixed"):
            compiled, _ = self._smoke(monkeypatch, algorithm)
            assert compiled == qsa[0], algorithm

    def test_selection_inputs_do_not_move_composition(self, monkeypatch):
        reference = self._smoke(monkeypatch)
        names = SCENARIOS["smoke"](0).grid.resource_names
        with monkeypatch.context() as patch:
            patch.setattr(PhiWeights, "uniform", classmethod(
                lambda cls, _: cls.latency_aware(names, latency_weight=0.5)
            ))
            assert self._smoke(monkeypatch) == reference
        with monkeypatch.context() as patch:
            patch.setattr(repro.grid, "NetworkModel", lambda peers, seed: (
                NetworkModel(peers, seed=seed + 1000)
            ))
            assert self._smoke(monkeypatch) == reference

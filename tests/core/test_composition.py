"""Unit tests for the QCS composition algorithm (paper §3.2, Fig. 3)."""

import numpy as np
import pytest

from repro.core.composition import CompositionError
from repro.core.composition_vec import VectorizedComposer, compose_qcs
from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.services.model import AbstractServicePath
from tests.core import reference_kernels
from tests.core.reference_bruteforce import best_path
from tests.core.reference_kernels import ConsistencyGraph
from tests.core.test_qos_matrix import class_bound
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")


def rv(cpu, mem):
    return ResourceVector(NAMES, [cpu, mem])


def inst(iid, service, fmt_in, fmt_out, cpu=10.0, mem=10.0, bw=100.0, quality=3):
    """A simple instance: format pipeline plus a quality level."""
    return make_instance(
        instance_id=iid,
        service=service,
        qin=QoSVector(format=fmt_in, quality=Interval(1, 3)),
        qout=QoSVector(format=fmt_out, quality=quality),
        resources=rv(cpu, mem),
        bandwidth=bw,
    )


WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e7)
USER = QoSVector(format="final", quality=Interval(1, 3))


def two_hop_catalog(p=""):
    """source: raw -> mid; last: mid -> final (``p`` prefixes the ids)."""
    return {
        "src": [
            inst(p + "src/cheap", "src", "nothing", "mid", cpu=10, mem=10, bw=100),
            inst(p + "src/costly", "src", "nothing", "mid", cpu=500, mem=500, bw=1e6),
        ],
        "last": [
            inst(p + "last/cheap", "last", "mid", "final", cpu=20, mem=20, bw=200),
            inst(p + "last/costly", "last", "mid", "final", cpu=400, mem=400, bw=5e5),
        ],
    }


PATH2 = AbstractServicePath("app", ("src", "last"))


class TestConsistencyGraph:
    def test_layers_reverse_flow_order(self):
        g = ConsistencyGraph(PATH2, two_hop_catalog(), USER, WEIGHTS)
        # layer 0 = sink, layer 1 = 'last', layer 2 = 'src'
        assert g.n_layers == 3
        assert [i.service for i in g.layers[1]] == ["last", "last"]
        assert [i.service for i in g.layers[2]] == ["src", "src"]

    def test_missing_candidates_raise(self):
        with pytest.raises(CompositionError):
            ConsistencyGraph(PATH2, {"src": two_hop_catalog()["src"]}, USER, WEIGHTS)

    def test_edge_counts(self):
        g = ConsistencyGraph(PATH2, two_hop_catalog(), USER, WEIGHTS)
        # sink accepts both 'last' instances; each 'last' accepts both 'src'.
        assert g.n_edges == 2 + 4
        assert g.n_nodes == 1 + 4

    def test_inconsistent_edges_absent(self):
        cat = two_hop_catalog()
        cat["last"].append(inst("last/wrongin", "last", "XXX", "final"))
        g = ConsistencyGraph(PATH2, cat, USER, WEIGHTS)
        # wrongin connects to sink but receives no edges from src layer.
        assert (0, 0) in g.edges
        assert len(g.edges[(0, 0)]) == 3  # all three satisfy the sink
        assert (1, 2) not in g.edges  # wrongin has no consistent predecessor


def sparse_catalog(seed):
    """Three services of eight instances with random formats and quality
    floors: most pairs are inconsistent."""
    rng = np.random.default_rng(seed)
    services = ("s0", "s1", "s2")
    cat = {}
    for k, svc in enumerate(services):
        cat[svc] = []
        for j in range(8):
            fmt_in = f"if{k}/{rng.integers(2)}"
            fmt_out = f"if{k+1}/{rng.integers(2)}" if k < 2 else "final"
            q = int(rng.integers(1, 4))
            cat[svc].append(make_instance(
                f"{svc}/{j}", svc,
                qin=QoSVector(format=fmt_in, quality=Interval(q, 3)),
                qout=QoSVector(format=fmt_out, quality=q),
                resources=ResourceVector(NAMES, rng.uniform(1, 500, 2)),
                bandwidth=float(rng.uniform(1e3, 5e4)),
            ))
    return AbstractServicePath("sparse", services), cat


class TestGraphStats:
    def test_node_edge_counts_consistent(self):
        path, cat = sparse_catalog(seed=2)
        g = ConsistencyGraph(path, cat, USER, WEIGHTS)
        assert g.n_nodes == 1 + sum(len(v) for v in cat.values())
        assert g.n_edges == sum(len(v) for v in g.edges.values())

    def test_dense_catalog_has_full_interior_edges(self):
        """All-compatible formats/qualities give complete bipartite layers."""
        cat = {
            "a": [inst(f"a/{j}", "a", "origin", "mid") for j in range(4)],
            "b": [inst(f"b/{j}", "b", "mid", "final") for j in range(5)],
        }
        path = AbstractServicePath("dense", ("a", "b"))
        g = ConsistencyGraph(path, cat, USER, WEIGHTS)
        # sink->b: 5 edges; each b->a: 4 edges.
        assert g.n_edges == 5 + 5 * 4


class TestComposeQCS:
    def test_picks_minimum_aggregate_path(self):
        path = compose_qcs(PATH2, two_hop_catalog(), USER, WEIGHTS)
        assert [i.instance_id for i in path.instances] == ["src/cheap", "last/cheap"]

    def test_flow_order_source_first(self):
        path = compose_qcs(PATH2, two_hop_catalog(), USER, WEIGHTS)
        assert path.instances[0].service == "src"
        assert path.instances[-1].service == "last"

    def test_total_aggregates_resources_and_bandwidth(self):
        path = compose_qcs(PATH2, two_hop_catalog(), USER, WEIGHTS)
        assert path.total.resources == rv(30, 30)
        assert path.total.bandwidth == 300.0

    def test_score_matches_weight_profile(self):
        path = compose_qcs(PATH2, two_hop_catalog(), USER, WEIGHTS)
        assert np.isclose(path.score, WEIGHTS.score(path.total))

    def test_user_requirement_enforced_at_last_hop(self):
        cat = two_hop_catalog()
        strict_user = QoSVector(format="final", quality=Interval(3, 3))
        for i, it in enumerate(cat["last"]):
            cat["last"][i] = inst(
                it.instance_id, "last", "mid", "final", quality=2,
                cpu=it.resources.values[0],
            )
        with pytest.raises(CompositionError):
            compose_qcs(PATH2, cat, strict_user, WEIGHTS)

    def test_no_consistent_chain_raises(self):
        cat = {
            "src": [inst("s", "src", "nothing", "A")],
            "last": [inst("l", "last", "B", "final")],  # wants B, src gives A
        }
        with pytest.raises(CompositionError):
            compose_qcs(PATH2, cat, USER, WEIGHTS)

    def test_single_hop_aggregation(self):
        """Content retrieval: a single-hop path (paper §2.1)."""
        path1 = AbstractServicePath("retrieval", ("store",))
        cat = {
            "store": [
                inst("store/a", "store", "n/a", "final", cpu=100),
                inst("store/b", "store", "n/a", "final", cpu=10),
            ]
        }
        path = compose_qcs(path1, cat, USER, WEIGHTS)
        assert [i.instance_id for i in path.instances] == ["store/b"]
        assert path.hops == 1

    def test_dijkstra_and_dp_agree(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n_services = int(rng.integers(2, 6))
            services = tuple(f"s{k}" for k in range(n_services))
            cat = {}
            for k, svc in enumerate(services):
                fmt_in = f"if{k}"
                fmt_out = f"if{k+1}" if k < n_services - 1 else "final"
                cat[svc] = [
                    inst(
                        f"{svc}/{j}",
                        svc,
                        fmt_in,
                        fmt_out,
                        cpu=float(rng.uniform(1, 900)),
                        mem=float(rng.uniform(1, 900)),
                        bw=float(rng.uniform(1e3, 9e6)),
                    )
                    for j in range(int(rng.integers(1, 8)))
                ]
            apath = AbstractServicePath(f"t{trial}", services)
            a = reference_kernels.compose_qcs(
                apath, cat, USER, WEIGHTS, method="dp")
            b = reference_kernels.compose_qcs(
                apath, cat, USER, WEIGHTS, method="dijkstra")
            assert [i.instance_id for i in a.instances] == [
                i.instance_id for i in b.instances
            ]
            assert np.isclose(a.score, b.score)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            reference_kernels.compose_qcs(
                PATH2, two_hop_catalog(), USER, WEIGHTS, method="bogus")

    def test_exhaustive_agreement_on_small_instances(self):
        """QCS result equals brute-force minimum over all consistent paths."""
        rng = np.random.default_rng(7)
        for trial in range(20):
            services = ("a", "b", "c")
            cat = {}
            fmts = ["x", "y"]
            for k, svc in enumerate(services):
                cat[svc] = [
                    inst(
                        f"{svc}/{j}",
                        svc,
                        fmt_in=str(rng.choice(fmts)) + str(k),
                        fmt_out=(str(rng.choice(fmts)) + str(k + 1))
                        if k < 2
                        else "final",
                        cpu=float(rng.uniform(1, 500)),
                        mem=float(rng.uniform(1, 500)),
                        bw=float(rng.uniform(1e3, 1e6)),
                    )
                    for j in range(3)
                ]
            apath = AbstractServicePath(f"t{trial}", services)
            expected = best_path(apath, cat, USER, WEIGHTS)  # 27 combinations
            if expected is None:
                with pytest.raises(CompositionError):
                    compose_qcs(apath, cat, USER, WEIGHTS)
            else:
                got = compose_qcs(apath, cat, USER, WEIGHTS)
                assert (got.instances, got.score) == expected[:2]


class TestPlanLRU:
    """The composer's plan LRU at ``PLAN_CACHE_CAP = 2``.  A plan is a
    candidate set: ``x`` / ``y`` / ``z`` are the two-hop catalog under
    three id prefixes, ``a`` / ``b`` / ``c`` differ only in the user's
    quality floor, and a request is one of each (``"xa"``).  A hit is a
    compose that found its candidate set's plan *and* that plan's
    outcome for the user QoS; below the cap nothing is evicted, so the
    ``cache.qcs_plan.*`` counters of seeded runs equal those of the old
    ``(services, user QoS, candidates)`` key."""

    USERS = {
        name: QoSVector(format="final", quality=Interval(floor, 3))
        for name, floor in (("a", 1), ("b", 2), ("c", 3))
    }

    @pytest.fixture()
    def composer(self, monkeypatch):
        monkeypatch.setattr(VectorizedComposer, "PLAN_CACHE_CAP", 2)
        return VectorizedComposer(WEIGHTS)

    def compose(self, composer, requests):
        """Compose the space-separated requests in order; returns the
        ``(hits, misses)`` they added."""
        stats = composer.plan_stats
        before = stats.hits, stats.misses
        for prefix, user in requests.split():
            composer.compose(PATH2, two_hop_catalog(prefix), self.USERS[user])
        return stats.hits - before[0], stats.misses - before[1]

    def test_cap_evicts_oldest(self, composer):
        assert self.compose(composer, "xa ya za") == (0, 3)
        assert self.compose(composer, "ya za") == (2, 0)
        assert self.compose(composer, "xa") == (0, 1)

    def test_hit_refreshes_lru_position(self, composer):
        self.compose(composer, "xa ya")
        self.compose(composer, "xa")    # now "y" is the least recently used
        self.compose(composer, "za")
        assert self.compose(composer, "xa") == (1, 0)
        assert self.compose(composer, "ya") == (0, 1)

    def test_hit_at_the_cap_does_not_evict(self, composer):
        self.compose(composer, "xa ya")
        assert self.compose(composer, "xa") == (1, 0)
        assert self.compose(composer, "ya xa") == (2, 0)

    def test_user_qos_shares_the_plan_and_never_evicts_one(self, composer):
        self.compose(composer, "xa ya")
        # New requirements on a held candidate set: misses (a sink row
        # and a relaxation each), but no new plan, so "y" stays.
        assert self.compose(composer, "xb xc") == (0, 2)
        assert len(composer._plans) == 2
        assert self.compose(composer, "ya xc xb") == (3, 0)

    def test_outcomes_of_one_plan_are_bounded_by_the_same_cap(self, composer):
        catalog = two_hop_catalog("x")
        sink_row = {
            name: class_bound([i.qout for i in catalog["last"]], [user])
            for name, user in self.USERS.items()
        }
        first = composer.compose(PATH2, catalog, self.USERS["a"])
        assert self.compose(composer, "xb xc") == (0, 2)   # "c" drops "a"
        (plan,) = composer._plans.values()
        assert list(plan.outcomes) == [
            self.USERS["b"].as_tuple(), self.USERS["c"].as_tuple()
        ]
        # A dropped outcome is simply re-solved: one sink row of Eq. 1
        # work, no pair-matrix work, the same answer bit for bit.
        before = composer.index.eq1_evaluations
        assert self.compose(composer, "xa") == (0, 1)
        assert composer.index.eq1_evaluations - before == sink_row["a"] > 0
        again = composer.compose(PATH2, catalog, self.USERS["a"])
        assert again.instances == first.instances
        assert again.score.hex() == first.score.hex()
        assert again.total == first.total

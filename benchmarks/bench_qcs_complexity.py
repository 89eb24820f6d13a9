"""Claim C1: QCS costs O(K V^2) (paper §3.2).

``V`` is the total number of candidate instances, ``K`` the candidates
of the source service.  With layered candidates (V/n per layer), the
edge count -- the true work -- grows quadratically in the per-layer
candidate count; doubling V should roughly quadruple the runtime, i.e.
the log-log slope of time vs V sits near 2 (and clearly below 3).

Timed on the two scalar transcriptions of §3.2 (Dijkstra and the
one-sweep dp, ``tests/core/reference_kernels.py``), where the edge work
is interpreted python and so visible in wall time; the production
kernel's share of that work is gated as a count in
``bench_qcs_kernels.py``.
"""

import time

import numpy as np
import pytest

from repro.core.qos import Interval, QoSVector
from repro.core.resources import ResourceVector, WeightProfile
from repro.experiments.reporting import banner, format_sweep_table
from repro.services.model import AbstractServicePath
from tests.core.reference_kernels import compose_qcs
from tests.services.reference_catalog import make_instance

NAMES = ("cpu", "memory")
WEIGHTS = WeightProfile.uniform(NAMES, (1000.0, 1000.0), 1e6)
USER = QoSVector(format="final", quality=Interval(1, 3))
N_SERVICES = 4


def make_catalog(per_layer: int, rng: np.random.Generator):
    services = tuple(f"s{k}" for k in range(N_SERVICES))
    cat = {}
    for k, svc in enumerate(services):
        fmt_in = f"if{k}"
        fmt_out = f"if{k+1}" if k < N_SERVICES - 1 else "final"
        cat[svc] = [
            make_instance(
                f"{svc}/{j}",
                svc,
                qin=QoSVector(format=fmt_in, quality=Interval(1, 3)),
                qout=QoSVector(format=fmt_out, quality=3),
                resources=ResourceVector(NAMES, rng.uniform(1, 900, 2)),
                bandwidth=float(rng.uniform(1e3, 9e5)),
            )
            for j in range(per_layer)
        ]
    return AbstractServicePath("scaling", services), cat


def time_compose(per_layer: int, method: str, repeats: int = 5) -> float:
    rng = np.random.default_rng(per_layer)
    path, cat = make_catalog(per_layer, rng)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        compose_qcs(path, cat, USER, WEIGHTS, method=method)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.benchmark(group="claims")
def test_qcs_scaling_is_quadratic_in_candidates(benchmark):
    per_layer_counts = (8, 16, 32, 64, 128)

    def run():
        return {
            "dijkstra": [time_compose(n, "dijkstra") for n in per_layer_counts],
            "dp": [time_compose(n, "dp") for n in per_layer_counts],
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)

    v_values = [n * N_SERVICES for n in per_layer_counts]
    print()
    print(banner(
        "Claim C1 -- QCS complexity O(K V^2)",
        f"{N_SERVICES} services, V = total candidate instances; "
        "seconds per composition",
    ))
    print(format_sweep_table(
        "V (candidates)", v_values,
        {m: ts for m, ts in times.items()},
        value_format="{:10.6f}",
    ))

    for method, ts in times.items():
        # Log-log slope over the upper half of the sweep (away from
        # constant overheads).
        logs_n = np.log(per_layer_counts[2:])
        logs_t = np.log(ts[2:])
        slope = np.polyfit(logs_n, logs_t, 1)[0]
        print(f"{method}: empirical exponent = {slope:.2f}")
        assert slope < 3.0, f"{method} scales worse than quadratic: {slope:.2f}"
    # 16x the candidates must cost well over 16x (superlinear edge work).
    assert times["dp"][-1] / times["dp"][0] > 16

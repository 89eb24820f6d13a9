"""Shared bench configuration.

Every bench prints the reproduced table/series (the rows the paper's
figure plots) and asserts the *shape* claims -- orderings and trends --
not absolute values.  ``REPRO_PAPER_SCALE=1`` switches to the paper's
10^4-peer population and full horizons (slow: tens of minutes per
figure); the default runs a 10x-reduced, load-preserving configuration.
"""

import os

import pytest


# Benches are ordered: figures first, then claims, then ablations, then
# workload/extension benches.  Every ``bench_*.py`` in this directory
# MUST appear here -- ``tests/test_bench_conftest.py`` asserts the map
# stays in sync with the files on disk, so a new bench that forgets to
# register fails fast instead of silently sorting last.
BENCH_ORDER = {
    "bench_figure5": 0,
    "bench_figure6": 1,
    "bench_figure7": 2,
    "bench_figure8": 3,
    "bench_qcs_complexity": 4,
    "bench_qcs_kernels": 5,
    "bench_probe_overhead": 6,
    "bench_chord_lookup": 7,
    "bench_ablation_uptime": 8,
    "bench_ablation_probe_budget": 9,
    "bench_ablation_tiers": 10,
    "bench_can_lookup": 11,
    "bench_load_balance": 12,
    "bench_lookup_substrate": 13,
    "bench_recovery": 14,
    "bench_sensitivity": 15,
    "bench_fault_tolerance": 16,
    "bench_flash_crowd": 17,
    "bench_latency_aware": 18,
    "bench_soa_scale": 19,
    "bench_membership": 20,
    "bench_selection_hop": 21,
}


def pytest_collection_modifyitems(config, items):
    items.sort(
        key=lambda it: BENCH_ORDER.get(it.module.__name__.split(".")[-1], 99)
    )


@pytest.fixture(scope="session")
def paper_scale_active() -> bool:
    return os.environ.get("REPRO_PAPER_SCALE", "").strip() not in ("", "0")


@pytest.fixture(scope="session")
def fig_horizon(paper_scale_active):
    """Figure-5 horizon: the paper averages over 400 minutes."""
    return 400.0 if paper_scale_active else 60.0

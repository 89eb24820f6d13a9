"""Regression tracking: compare experiment results against a baseline.

Long-lived reproductions drift -- a refactor subtly changes an RNG draw
order, a "harmless" optimization flips a tie-break -- and ψ moves without
anyone noticing.  This module provides the guard rail:

* :func:`save_baseline` -- persist a result's fingerprint as JSON;
* :func:`compare_to_baseline` -- re-run comparison with tolerances,
  returning a list of human-readable regressions (empty = clean).

Fingerprints include ψ, the request count and the status breakdown;
exact-match mode (``tolerance=0``) detects *any* behavioural change of a
seeded run, loose mode tracks statistical drift.

The repo's ψ goldens use it in exact mode
(``tests/test_psi_goldens.py`` against ``tests/goldens/psi-*.json``)::

    result = run_experiment(config)
    problems = compare_to_baseline(result, "tests/goldens/psi-baseline.json",
                                   tolerance=0.0)
    assert not problems, "\\n".join(problems)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.experiments.runner import ExperimentResult

__all__ = ["fingerprint", "save_baseline", "compare_to_baseline"]

PathLike = Union[str, Path]


def fingerprint(result: ExperimentResult) -> Dict:
    """The comparable facts of one run."""
    return {
        "algorithm": result.algorithm,
        "seed": result.config.grid.seed,
        "n_peers": result.config.grid.n_peers,
        "rate_per_min": result.config.workload.rate_per_min,
        "horizon": result.config.workload.horizon,
        "n_requests": result.n_requests,
        "success_ratio": result.success_ratio,
        "breakdown": dict(result.metrics.breakdown()),
    }


def save_baseline(result: ExperimentResult, path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprint(result), indent=2, sort_keys=True)
                    + "\n")
    return path


def compare_to_baseline(
    result: ExperimentResult,
    path: PathLike,
    tolerance: float = 0.0,
) -> List[str]:
    """Differences between ``result`` and the stored baseline.

    ``tolerance`` bounds the allowed |Δψ| (0 = exact).  Config mismatches
    (different seed/population/rate) are always reported -- comparing
    across configs is a category error, not a regression.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    baseline = json.loads(Path(path).read_text())
    current = fingerprint(result)
    problems: List[str] = []

    for key in ("algorithm", "seed", "n_peers", "rate_per_min", "horizon"):
        if baseline.get(key) != current[key]:
            problems.append(
                f"config mismatch on {key!r}: baseline "
                f"{baseline.get(key)!r} vs current {current[key]!r}"
            )
    if problems:
        return problems

    delta = abs(current["success_ratio"] - baseline["success_ratio"])
    if delta > tolerance + 1e-12:
        problems.append(
            f"ψ drifted by {delta:.4f} "
            f"(baseline {baseline['success_ratio']:.4f}, "
            f"current {current['success_ratio']:.4f}, "
            f"tolerance {tolerance})"
        )
    if tolerance == 0.0:
        if current["n_requests"] != baseline["n_requests"]:
            problems.append(
                f"request count changed: {baseline['n_requests']} -> "
                f"{current['n_requests']}"
            )
        if current["breakdown"] != baseline["breakdown"]:
            problems.append(
                f"status breakdown changed: {baseline['breakdown']} -> "
                f"{current['breakdown']}"
            )
    return problems

"""Exporting experiment results to JSON and CSV.

Reproduction data should leave the process in machine-readable form so
downstream analysis (plots, statistics, regression tracking) does not
have to re-run simulations.  These helpers serialize the harness's
result objects with plain-stdlib ``json``/``csv`` -- no extra deps.

* :func:`result_to_dict` / :func:`save_result_json` -- one
  :class:`~repro.experiments.runner.ExperimentResult`, including the
  status breakdown and (optionally) per-request records.
* :func:`sweep_to_csv` -- a figure sweep (x values x algorithms) as the
  CSV the corresponding figure would be plotted from.
* :func:`series_to_csv` -- a fluctuation series (Fig. 6/8 shape).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Sequence, Union

import numpy as np

from repro.experiments.runner import ExperimentResult

__all__ = [
    "result_to_dict",
    "save_result_json",
    "sweep_to_csv",
    "series_to_csv",
]

PathLike = Union[str, Path]


def result_to_dict(
    result: ExperimentResult, include_records: bool = False
) -> Dict:
    """A JSON-safe dictionary view of one experiment run."""
    out = {
        "algorithm": result.algorithm,
        "success_ratio": result.success_ratio,
        "n_requests": result.n_requests,
        "mean_lookup_hops": result.mean_lookup_hops,
        "probe_overhead": result.probe_overhead,
        "n_arrivals": result.n_arrivals,
        "n_departures": result.n_departures,
        "wall_seconds": result.wall_seconds,
        "breakdown": dict(result.metrics.breakdown()),
        "config": {
            "n_peers": result.config.grid.n_peers,
            "seed": result.config.grid.seed,
            "probe_budget": result.config.grid.probing.budget,
            "rate_per_min": result.config.workload.rate_per_min,
            "horizon": result.config.workload.horizon,
            "churn_per_min": (
                result.config.grid.churn.rate_per_min
                if result.config.grid.churn
                else 0.0
            ),
        },
    }
    if include_records:
        out["records"] = [
            {
                "request_id": r.request_id,
                "arrival_time": r.arrival_time,
                "application": r.application,
                "qos_level": r.qos_level,
                "status": r.status,
                "success": r.success,
                "lookup_hops": r.lookup_hops,
            }
            for r in result.metrics.records.values()
        ]
    return out


def save_result_json(
    result: ExperimentResult,
    path: PathLike,
    include_records: bool = False,
) -> Path:
    """Write one run to ``path`` as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(result_to_dict(result, include_records), indent=2,
                   sort_keys=True)
        + "\n"
    )
    return path


def sweep_to_csv(
    x_label: str,
    x_values: Sequence[float],
    columns: Dict[str, Sequence[float]],
    path: PathLike,
) -> Path:
    """Write a sweep (Fig. 5/7 shape) as CSV: one row per x value."""
    path = Path(path)
    names = list(columns)
    for name in names:
        if len(columns[name]) != len(x_values):
            raise ValueError(
                f"column {name!r} has {len(columns[name])} values, "
                f"expected {len(x_values)}"
            )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_label, *names])
        for i, x in enumerate(x_values):
            writer.writerow([x, *(columns[n][i] for n in names)])
    return path


def series_to_csv(
    times: Sequence[float],
    series: Dict[str, Sequence[float]],
    path: PathLike,
    time_label: str = "time_min",
) -> Path:
    """Write a fluctuation series (Fig. 6/8 shape) as CSV.

    NaN samples (empty windows) are written as empty cells.
    """
    path = Path(path)
    names = list(series)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([time_label, *names])
        for i, t in enumerate(times):
            row = [t]
            for n in names:
                v = series[n][i]
                row.append("" if not np.isfinite(v) else v)
            writer.writerow(row)
    return path

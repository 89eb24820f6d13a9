"""Exporting experiment results to CSV.

Reproduction data should leave the process in machine-readable form so
downstream analysis (plots, statistics) does not have to re-run
simulations.  These helpers write the figure data with plain-stdlib
``csv`` -- no extra deps.

* :func:`sweep_to_csv` -- a figure sweep (x values x algorithms) as the
  CSV the corresponding figure would be plotted from.
* :func:`series_to_csv` -- a fluctuation series (Fig. 6/8 shape).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Sequence, Union

import numpy as np

__all__ = [
    "sweep_to_csv",
    "series_to_csv",
]

PathLike = Union[str, Path]


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

"""Unit tests for result export (CSV)."""

import csv
import math

import pytest

from repro.experiments.export import series_to_csv, sweep_to_csv


class TestSweepCsv:
    def test_writes_rows(self, tmp_path):
        path = sweep_to_csv(
            "rate", [100, 200],
            {"qsa": [0.9, 0.8], "random": [0.7, 0.6]},
            tmp_path / "sweep.csv",
        )
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["rate", "qsa", "random"]
        assert rows[1] == ["100", "0.9", "0.7"]
        assert len(rows) == 3

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep_to_csv("x", [1, 2], {"a": [0.5]}, tmp_path / "bad.csv")


class TestSeriesCsv:
    def test_nan_becomes_empty_cell(self, tmp_path):
        path = series_to_csv(
            [2.0, 4.0], {"qsa": [0.5, math.nan]}, tmp_path / "series.csv"
        )
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["time_min", "qsa"]
        assert rows[1] == ["2.0", "0.5"]
        assert rows[2] == ["4.0", ""]

"""Fixture snippets: each built-in rule fires exactly once, and the
matching clean twin stays silent.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths


def lint_snippet(tmp_path: Path, source: str, **kwargs):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_paths([path], jobs=1, **kwargs)


class TestDET001:
    def test_wall_clock_fires_once(self, tmp_path):
        report = lint_snippet(tmp_path, "import time\nt = time.time()\n")
        assert [f.rule for f in report.findings] == ["DET001"]

    def test_from_import_alias(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "from time import perf_counter as pc\nt = pc()\n",
        )
        assert [f.rule for f in report.findings] == ["DET001"]

    def test_datetime_now(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "from datetime import datetime\nd = datetime.now()\n",
        )
        assert [f.rule for f in report.findings] == ["DET001"]

    def test_sim_clock_is_clean(self, tmp_path):
        report = lint_snippet(tmp_path, "def f(sim):\n    return sim.now\n")
        assert report.ok


class TestDET002:
    def test_unstreamed_numpy_rng_fires_once(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng(0)\n",
        )
        assert [f.rule for f in report.findings] == ["DET002"]

    def test_stdlib_random_import(self, tmp_path):
        report = lint_snippet(tmp_path, "import random\n")
        assert [f.rule for f in report.findings] == ["DET002"]

    def test_streamed_rng_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(rngs):\n    return rngs.stream('churn').random()\n",
        )
        assert report.ok


class TestDET003:
    def test_set_iteration_fires_once(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(xs):\n    for x in set(xs):\n        yield x\n",
        )
        assert [f.rule for f in report.findings] == ["DET003"]

    def test_keys_view_iteration(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(d):\n    return [k for k in d.keys()]\n",
        )
        assert [f.rule for f in report.findings] == ["DET003"]

    def test_sorted_set_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(xs):\n    for x in sorted(set(xs)):\n        yield x\n",
        )
        assert report.ok


class TestTEL001:
    def test_uncatalogued_event_fires_once(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(bus):\n    bus.emit('no.such.event', x=1)\n",
        )
        assert [f.rule for f in report.findings] == ["TEL001"]

    def test_uncatalogued_span(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(tracer):\n    with tracer.span('no.such.span'):\n"
            "        pass\n",
        )
        assert [f.rule for f in report.findings] == ["TEL001"]

    def test_catalogued_event_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(bus):\n    bus.emit('lookup.done', hops=2)\n",
        )
        assert report.ok

    def test_dead_catalog_entry_via_finalize(self):
        from repro.analysis.engine import ProjectState
        from repro.analysis.registry import get_rule
        from repro.analysis.rules.telemetry import (
            _CATALOG_KEY,
            _FULL_SCAN_MARKERS,
        )

        project = ProjectState()
        project.scanned_pkgs = set(_FULL_SCAN_MARKERS)
        project.contributions[_CATALOG_KEY] = [
            ("event", "ghost.event", 42, "src/repro/telemetry/catalog.py"),
        ]
        findings = list(get_rule("TEL001").finalize(project))
        assert len(findings) == 1
        assert findings[0].rule == "TEL001"
        assert "ghost.event" in findings[0].message
        assert findings[0].line == 42

    def test_partial_scan_skips_reverse_check(self):
        from repro.analysis.engine import ProjectState
        from repro.analysis.registry import get_rule
        from repro.analysis.rules.telemetry import _CATALOG_KEY

        project = ProjectState()
        project.scanned_pkgs = {"telemetry/catalog.py"}  # markers missing
        project.contributions[_CATALOG_KEY] = [
            ("event", "ghost.event", 1, "catalog.py"),
        ]
        assert list(get_rule("TEL001").finalize(project)) == []

    def test_uncatalogued_slo_fires_once(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "from repro.telemetry.slo import Objective\n"
            "OBJ = Objective(name='slo.no_such', description='x',\n"
            "                kind='floor', target=0.5,\n"
            "                series='serve.window.admits')\n",
        )
        assert [f.rule for f in report.findings] == ["TEL001"]

    def test_catalogued_slo_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "from repro.telemetry.slo import Objective\n"
            "OBJ = Objective(name='slo.psi', description='x',\n"
            "                kind='floor', target=0.85,\n"
            "                series='serve.window.admits')\n",
        )
        assert report.ok

    def test_uncatalogued_windowed_series_fires_once(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(windows):\n"
            "    windows.track('serve.window.no_such', kind='counter')\n",
        )
        assert [f.rule for f in report.findings] == ["TEL001"]

    def test_catalogued_windowed_series_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "def f(windows):\n"
            "    windows.track('serve.window.requests', kind='counter')\n",
        )
        assert report.ok

    def test_cumulative_metric_name_not_trackable(self, tmp_path):
        # A window-kind check, not a general metric check: tracking a
        # *cumulative* catalog name as a derived series still fires.
        report = lint_snippet(
            tmp_path,
            "def f(windows):\n"
            "    windows.track('qcs.compositions', kind='counter')\n",
        )
        assert [f.rule for f in report.findings] == ["TEL001"]

    def test_dead_slo_and_window_entries_via_finalize(self):
        from repro.analysis.engine import ProjectState
        from repro.analysis.registry import get_rule
        from repro.analysis.rules.telemetry import (
            _CATALOG_KEY,
            _FULL_SCAN_MARKERS,
            _SLOS_KEY,
            _WINDOWS_KEY,
        )

        project = ProjectState()
        project.scanned_pkgs = set(_FULL_SCAN_MARKERS)
        project.contributions[_CATALOG_KEY] = [
            ("slo", "slo.ghost", 7, "src/repro/telemetry/catalog.py"),
            ("window", "serve.window.ghost", 9,
             "src/repro/telemetry/catalog.py"),
            ("slo", "slo.live", 11, "src/repro/telemetry/catalog.py"),
            ("window", "serve.window.live", 13,
             "src/repro/telemetry/catalog.py"),
        ]
        project.contributions[_SLOS_KEY] = ["slo.live"]
        project.contributions[_WINDOWS_KEY] = ["serve.window.live"]
        findings = list(get_rule("TEL001").finalize(project))
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "slo.ghost" in messages and "declared" in messages
        assert "serve.window.ghost" in messages and "tracked" in messages

    def test_catalog_parser_sees_slos_and_windows(self):
        # The AST parser over the real catalog module finds every
        # SLO_CATALOG entry and every window-kind METRIC_CATALOG entry
        # (guards against the reverse check silently covering nothing).
        import ast
        from pathlib import Path

        import repro.telemetry.catalog as catalog_mod
        from repro.analysis.engine import FileContext
        from repro.analysis.rules.telemetry import _catalog_entries
        from repro.telemetry.catalog import METRIC_CATALOG, SLO_CATALOG

        path = Path(catalog_mod.__file__)
        source = path.read_text()
        ctx = FileContext(path, str(path), source, ast.parse(source))
        parsed = {(kind, name) for kind, name, _line in _catalog_entries(ctx)}
        for slo_name in SLO_CATALOG:
            assert ("slo", slo_name) in parsed
        window_names = {name for name, (kind, *_r) in METRIC_CATALOG.items()
                        if kind == "window"}
        assert window_names  # the serving plane declares some
        for name in window_names:
            assert ("window", name) in parsed
        # cumulative instruments must *not* enter the reverse check
        assert ("metric", "qcs.compositions") not in parsed
        assert ("window", "qcs.compositions") not in parsed

    def test_full_repo_scan_is_clean(self):
        # End-to-end: the shipped package passes its own two-way check.
        from pathlib import Path

        import repro
        from repro.analysis import lint_paths

        report = lint_paths([Path(repro.__file__).parent], jobs=1)
        assert report.ok, [f.render() for f in report.findings]


class TestSelectDisable:
    def test_select_limits_rules(self, tmp_path):
        source = "import time\nimport random\nt = time.time()\n"
        all_report = lint_snippet(tmp_path, source)
        assert {f.rule for f in all_report.findings} == {"DET001", "DET002"}
        only_det2 = lint_snippet(tmp_path, source, select=["DET002"])
        assert [f.rule for f in only_det2.findings] == ["DET002"]
        disabled = lint_snippet(tmp_path, source, disable=["DET001"])
        assert [f.rule for f in disabled.findings] == ["DET002"]

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(KeyError):
            lint_snippet(tmp_path, "x = 1\n", select=["NOPE999"])


class TestPluginRegistry:
    def test_thirty_line_rule_registers_and_fires(self, tmp_path):
        import ast

        from repro.analysis.registry import Rule, _RULES, register

        @register
        class NoEval(Rule):
            id = "TMP999"
            name = "no-eval"
            invariant = "fixture rule for the plugin test"

            def check(self, ctx):
                for node in ctx.walk(ast.Call):
                    if ctx.call_chain(node) == ("eval",):
                        yield ctx.finding(self, node, "eval() used")

        try:
            report = lint_snippet(
                tmp_path, "x = eval('1 + 1')\n", select=["TMP999"]
            )
            assert [f.rule for f in report.findings] == ["TMP999"]
        finally:
            _RULES.pop("TMP999")

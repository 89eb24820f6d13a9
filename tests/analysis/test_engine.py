"""Engine behaviour: pragmas, JSON output, exit codes, file discovery."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from repro.analysis import lint_paths
from repro.analysis.engine import PARSE_RULE_ID

from tests.analysis.test_rules import lint_snippet

REPO = Path(__file__).resolve().parents[2]


class TestPragmas:
    def test_line_pragma_suppresses(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "import time\n"
            "t = time.time()  # lint: disable=DET001 -- fixture\n",
        )
        assert report.ok
        # The import line still counts: only the flagged call is annotated.
        assert report.suppressed == 1

    def test_line_pragma_is_rule_specific(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "import time\n"
            "t = time.time()  # lint: disable=DET002 -- wrong rule\n",
        )
        assert [f.rule for f in report.findings] == ["DET001"]
        assert report.suppressed == 0

    def test_disable_all_pragma(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "import time\nt = time.time()  # lint: disable=all -- fixture\n",
        )
        assert report.ok
        assert report.suppressed == 1

    def test_file_pragma_suppresses_whole_file(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "# lint: disable-file=DET001 -- fixture\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n",
        )
        assert report.ok
        assert report.suppressed == 2

    def test_multi_rule_pragma(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "import time, random  # lint: disable=DET001,DET002 -- fixture\n"
            "t = time.time()  # lint: disable=DET001 -- fixture\n",
        )
        assert report.ok
        assert report.suppressed == 2


class TestParseErrors:
    def test_syntax_error_is_a_finding(self, tmp_path):
        report = lint_snippet(tmp_path, "def broken(:\n")
        assert [f.rule for f in report.findings] == [PARSE_RULE_ID]
        assert report.exit_code == 1


class TestReport:
    def test_findings_sorted_and_rendered(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\n")
        (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
        report = lint_paths([tmp_path], jobs=1)
        paths = [f.path for f in report.findings]
        assert paths == sorted(paths)
        first = report.findings[0]
        assert report.render_text().splitlines()[0] == (
            f"{first.path}:{first.line}:{first.col}: "
            f"{first.rule} {first.message}"
        )
        assert report.render_text().splitlines()[-1].endswith("in 2 files")

    def test_json_output_matches_schema(self, tmp_path):
        report = lint_snippet(tmp_path, "import time\nt = time.time()\n")
        payload = json.loads(report.render_json())
        schema = {
            "type": "object",
            "required": ["version", "files", "suppressed", "rules",
                         "findings"],
            "properties": {
                "version": {"const": 1},
                "files": {"type": "integer", "minimum": 0},
                "suppressed": {"type": "integer", "minimum": 0},
                "rules": {
                    "type": "object",
                    "additionalProperties": {"type": "integer"},
                },
                "findings": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["path", "line", "col", "rule",
                                     "message"],
                        "properties": {
                            "path": {"type": "string"},
                            "line": {"type": "integer", "minimum": 1},
                            "col": {"type": "integer", "minimum": 0},
                            "rule": {"type": "string"},
                            "message": {"type": "string"},
                        },
                        "additionalProperties": False,
                    },
                },
            },
            "additionalProperties": False,
        }
        jsonschema.validate(payload, schema)
        assert payload["rules"] == {"DET001": 1}

    def test_skips_pycache_and_dedups(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("x = 1\n")
        junk = pkg / "__pycache__"
        junk.mkdir()
        (junk / "mod.cpython-311.py").write_text("import time\ntime.time()\n")
        report = lint_paths([pkg, pkg / "mod.py"], jobs=1)
        assert report.ok
        assert report.n_files == 1


class TestCli:
    def run_cli(self, *argv, cwd=None):
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True, text=True, cwd=cwd or REPO, env=env,
        )

    def test_exit_zero_on_clean_tree(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = self.run_cli(str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "0 findings" in proc.stdout

    def test_exit_one_on_findings_and_json(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        proc = self.run_cli(str(tmp_path), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["rules"] == {"DET001": 1}

    def test_exit_two_on_unknown_rule(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        proc = self.run_cli(str(tmp_path), "--select", "BOGUS1")
        assert proc.returncode == 2
        assert "BOGUS1" in proc.stderr

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("DET001", "DET002", "DET003", "TEL001"):
            assert rule_id in proc.stdout


class TestPragmaJustification:
    # E001: every pragma must carry a `-- why` and name registered ids;
    # a pragma naming a deleted rule is stale and suppresses nothing.
    @pytest.mark.parametrize("pragma, message", [
        ("disable=DET001", "'-- why'"),
        ("disable=DET001,TEL002 -- rule since deleted",
         "unknown rule id(s) TEL002"),
        ("disable-file=SHARD001,DET001 -- rule since deleted",
         "unknown rule id(s) SHARD001"),
    ], ids=["unjustified", "unknown-rule", "unknown-rule-file"])
    def test_bad_pragma_is_e001(self, tmp_path, pragma, message):
        report = lint_snippet(
            tmp_path, f"import time\nt = time.time()  # lint: {pragma}\n",
        )
        assert [f.rule for f in report.findings] == ["E001"]
        assert message in report.findings[0].message
        assert report.suppressed == 1  # the known id still suppresses

    def test_justified_pragma_is_clean(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "import time\n"
            "t = time.time()  # lint: disable=DET001 -- fixture timing\n",
        )
        assert report.ok

    def test_default_scan_requires_justification(self, tmp_path):
        # The plain `repro lint` run is the strict one: no flag arms E001.
        (tmp_path / "m.py").write_text(
            "import time\nt = time.time()  # lint: disable=DET001\n"
        )
        proc = TestCli().run_cli(str(tmp_path), "--format", "json")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["rules"] == {"E001": 1}

    def test_pragma_text_in_a_docstring_is_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            '"""Mentions # lint: disable=DET001 in prose."""\nx = 1\n',
        )
        assert report.ok


class TestParseOnce:
    # The engine parses each file exactly once per scan and shares one
    # materialised node list across every rule (the lint-engine perf
    # fix); a second parse or walk per rule would regress scan time by
    # the rule count.
    def test_each_file_is_parsed_exactly_once(self, tmp_path, monkeypatch):
        import ast

        from repro.analysis import engine

        for i in range(3):
            (tmp_path / f"m{i}.py").write_text(
                "import time\nt = time.time()\n"
            )
        real_parse = ast.parse
        calls = []

        def counting_parse(source, *args, **kwargs):
            calls.append(1)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(engine.ast, "parse", counting_parse)
        report = lint_paths([tmp_path], jobs=1)
        assert len(report.findings) == 3
        assert len(calls) == 3

    def test_walk_materialises_the_tree_once(self, monkeypatch):
        import ast

        from repro.analysis import engine
        from repro.analysis.engine import FileContext

        source = "import time\nx = time.time()\n"
        ctx = FileContext(
            Path("m.py"), "m.py", source, ast.parse(source)
        )
        real_walk = ast.walk
        calls = []

        def counting_walk(tree):
            calls.append(1)
            return real_walk(tree)

        monkeypatch.setattr(engine.ast, "walk", counting_walk)
        list(ctx.walk())
        list(ctx.walk(ast.Call))
        list(ctx.walk(ast.Import, ast.ImportFrom))
        assert len(calls) == 1

"""The repository's own source tree passes its own linter.

This is the enforcement test: a new wall-clock call, un-streamed RNG
draw, set-order iteration or un-catalogued telemetry name fails CI here
(and in the dedicated CI lint job) unless it carries a justified
pragma; an unjustified or stale pragma (E001) fails it too.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths

REPO = Path(__file__).resolve().parents[2]


def test_repo_is_lint_clean():
    report = lint_paths([REPO / "src", REPO / "tests"])
    assert report.ok, "\n" + report.render_text()


def test_repo_scan_covers_the_full_scan_markers():
    # The TEL001 dead-entry reverse check only arms on a full scan; make
    # sure the default paths actually constitute one, so catalog rot
    # cannot slip through via a silently disarmed check.
    from repro.analysis.engine import ProjectState, _scan_one
    from repro.analysis.rules.telemetry import _FULL_SCAN_MARKERS

    project = ProjectState()
    from repro.analysis.engine import iter_python_files

    for path in iter_python_files([REPO / "src"]):
        result = _scan_one(str(path), None)
        if result.pkg is not None:
            project.scanned_pkgs.add(result.pkg)
    assert _FULL_SCAN_MARKERS <= project.scanned_pkgs

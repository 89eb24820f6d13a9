"""Static analysis for the QSA stack: the ``repro lint`` subsystem.

The paper's results only reproduce when every seeded run is
bit-deterministic and the telemetry stream is byte-stable.  Those
invariants were previously enforced by convention plus differential
tests; this package makes them machine-checked:

* :mod:`repro.analysis.engine` -- AST scan engine: discovery, pragmas,
  process-parallel file checks, text/JSON reports.
* :mod:`repro.analysis.registry` -- the plugin registry rules hook into.
* :mod:`repro.analysis.rules` -- the built-in rules (DET001/2/3,
  TEL001, SHARD001).

CLI: ``repro lint [paths ...] [--format json] [--select/--disable RULE]``.
Docs: docs/static-analysis.md (rule ids, pragma syntax, adding rules).
"""

from __future__ import annotations

from repro.analysis.engine import (
    Finding,
    LintReport,
    iter_python_files,
    lint_paths,
)
from repro.analysis.registry import Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "register",
]

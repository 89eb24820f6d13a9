"""Static analysis for the QSA stack: the ``repro lint`` subsystem.

The paper's results only reproduce when every seeded run is
bit-deterministic and the telemetry stream is byte-stable.  Those
invariants were previously enforced by convention plus differential
tests; this package makes them machine-checked:

* :mod:`repro.analysis.engine` -- AST scan engine: discovery, pragmas,
  process-parallel file checks, text/JSON reports.
* :mod:`repro.analysis.registry` -- the plugin registry rules hook into.
* :mod:`repro.analysis.rules` -- the built-in rules (DET001/2/3,
  TEL001), all per-file; the engine adds E000 (unparsable file) and
  E001 (a pragma without a ``-- why`` or naming an unknown rule id).

Hash order that escapes a module is not a lint question: the hash-seed
differential (``tests/sim/test_hash_seed_differential.py``) runs one
seeded ``repro run`` and one scripted ``repro serve`` trace under two
``PYTHONHASHSEED`` values and compares their output bytes.

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

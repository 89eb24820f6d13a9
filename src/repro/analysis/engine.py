"""The lint engine: file discovery, pragmas, parallel scan, reporting.

The engine is deliberately small -- all invariant knowledge lives in
the rules (:mod:`repro.analysis.rules`); the engine only

* discovers ``*.py`` files under the requested paths,
* parses each file once and hands the AST to every applicable rule,
* honours ``# lint: disable=RULE`` pragmas (line) and
  ``# lint: disable-file=RULE`` pragmas (whole file),
* fans the per-file scans out over a process pool (parsing dominates,
  and the workers share nothing), and
* merges per-file *contributions* for the cross-file ``finalize`` pass
  (TEL001's two-way dead-event check needs every emit site at once).

Exit-code contract (the CLI's and CI's interface): 0 clean, 1 findings,
2 bad invocation.  Output is deterministic -- findings sort by
``(path, line, col, rule)`` regardless of worker scheduling.

Pragma syntax::

    x = time.time()  # lint: disable=DET001 -- wall time is display-only
    # lint: disable-file=DET003 -- this whole module is offline tooling

Everything after ``--`` is the justification, and it is required: a
pragma without one, or one naming a rule id the registry does not
know (a stale pragma suppresses nothing), is an ``E001`` finding.
``disable=all`` suppresses every rule on the line.
"""

from __future__ import annotations

import ast
import json
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

__all__ = [
    "Finding",
    "FileContext",
    "ProjectState",
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "PARSE_RULE_ID",
    "PRAGMA_RULE_ID",
]

#: Rule id attached to files the engine cannot parse.
PARSE_RULE_ID = "E000"

#: Rule id attached to pragmas that lack a ``-- why`` justification or
#: name a rule id the registry does not know.
PRAGMA_RULE_ID = "E001"

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileContext:
    """One parsed file plus the helpers every rule needs."""

    def __init__(self, path: Path, rel: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        #: Path as reported in findings (relative to the CWD when under it).
        self.rel = rel
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        parts = path.resolve().parts
        #: Posix path *inside* the repro package ("sim/rng.py",
        #: "telemetry/catalog.py", ...) or None outside it.  Uses the
        #: last "repro" path component so a checkout directory named
        #: "repro" does not confuse the scoping.
        self.pkg: Optional[str] = None
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == "repro":
                if i + 1 < len(parts):
                    self.pkg = "/".join(parts[i + 1:])
                break
        self.is_tests = "tests" in parts
        self.is_benchmarks = "benchmarks" in parts
        #: key -> list payloads merged across files for Rule.finalize.
        self.contributions: Dict[str, List[Any]] = {}
        self._import_maps: Optional[Tuple[Dict[str, str], Dict[str, str]]] = None
        self._all_nodes: Optional[List[ast.AST]] = None

    # -- rule conveniences -------------------------------------------------
    def walk(self, *types: Type[ast.AST]) -> Iterator[ast.AST]:
        # The node list is materialised once and shared by every rule:
        # with ~10 rules each walking a file several times, re-walking
        # the tree dominated scan time on large modules.
        if self._all_nodes is None:
            self._all_nodes = list(ast.walk(self.tree))
        if not types:
            return iter(self._all_nodes)
        return (n for n in self._all_nodes if isinstance(n, types))

    def finding(self, rule: Any, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule.id,
            message=message,
        )

    def contribute(self, key: str, payload: Any) -> None:
        """Record a (picklable) payload for the whole-scan finalize pass."""
        self.contributions.setdefault(key, []).append(payload)

    @staticmethod
    def attr_chain(node: ast.AST) -> Tuple[str, ...]:
        """``self.telemetry.bus.emit`` -> ("self", "telemetry", "bus", "emit").

        Returns () when the expression is not a plain name/attribute
        chain (a call result, a subscript, ...).
        """
        names: List[str] = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            names.append(node.id)
            return tuple(reversed(names))
        return ()

    def call_chain(self, call: ast.Call) -> Tuple[str, ...]:
        return self.attr_chain(call.func)

    @property
    def imports(self) -> Dict[str, str]:
        """Local alias -> imported module ("np" -> "numpy")."""
        return self._imports()[0]

    @property
    def imported_names(self) -> Dict[str, str]:
        """Local name -> "module.name" for ``from module import name``."""
        return self._imports()[1]

    def _imports(self) -> Tuple[Dict[str, str], Dict[str, str]]:
        if self._import_maps is None:
            modules: Dict[str, str] = {}
            names: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        modules[local] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        names[local] = f"{node.module}.{alias.name}"
            self._import_maps = (modules, names)
        return self._import_maps


class ProjectState:
    """What ``Rule.finalize`` sees: the merged per-file contributions."""

    def __init__(self) -> None:
        self.contributions: Dict[str, List[Any]] = {}
        #: Every scanned file's ``FileContext.pkg`` (None entries dropped).
        self.scanned_pkgs: Set[str] = set()
        #: finding-path -> (per-line, per-file) pragma maps, so findings
        #: produced by ``Rule.finalize`` honour suppression pragmas too.
        self.pragmas: Dict[str, Tuple[Dict[int, Set[str]], Set[str]]] = {}

    def merge(self, contributions: Dict[str, List[Any]],
              pkg: Optional[str]) -> None:
        for key, payloads in contributions.items():
            self.contributions.setdefault(key, []).extend(payloads)
        if pkg is not None:
            self.scanned_pkgs.add(pkg)

    def suppressed(self, finding: Finding) -> bool:
        """Whether a finalize-pass finding is pragma-suppressed."""
        maps = self.pragmas.get(finding.path)
        if maps is None:
            return False
        return _suppressed(finding, maps[0], maps[1])


# -- pragmas ---------------------------------------------------------------

def _comment_lines(source: str, lines: Sequence[str]) -> Iterable[Tuple[int, str]]:
    """``(lineno, comment text)`` for every real comment token.

    Tokenizing keeps pragma *mentions* inside docstrings and string
    literals (e.g. documentation of the pragma syntax itself) from
    being treated as pragmas.  On a tokenization error the line-based
    fallback errs towards recognising pragmas (silence only when asked).
    """
    import io
    import tokenize

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, text in enumerate(lines, start=1):
            if "#" in text:
                yield lineno, text[text.index("#"):]


def _parse_pragmas(
    source: str, lines: Sequence[str], known: Set[str]
) -> Tuple[Dict[int, Set[str]], Set[str], List[Tuple[int, str]]]:
    """``(line -> suppressed ids, file-wide suppressed ids, problems)``.

    ``problems`` lists ``(line, message)`` for every pragma with no
    ``-- why`` justification after the rule list, or naming an id
    outside ``known`` (reported as :data:`PRAGMA_RULE_ID` findings).
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    problems: List[Tuple[int, str]] = []
    for lineno, text in _comment_lines(source, lines):
        if "lint:" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = {r.strip() for r in match.group("rules").split(",")}
        if match.group("kind") == "disable-file":
            per_file |= rules
        else:
            per_line.setdefault(lineno, set()).update(rules)
        unknown = sorted(rules - known)
        if unknown:
            problems.append((lineno, (
                f"lint pragma names unknown rule id(s) {', '.join(unknown)}; "
                "a stale pragma suppresses nothing")))
        if not text[match.end():].lstrip().startswith("--"):
            problems.append((lineno, (
                "lint pragma lacks a '-- why' justification; "
                "every suppression must say why it is safe")))
    return per_line, per_file, problems


def _suppressed(finding: Finding, per_line: Dict[int, Set[str]],
                per_file: Set[str]) -> bool:
    if finding.rule in per_file or "all" in per_file:
        return True
    rules = per_line.get(finding.line)
    return rules is not None and (finding.rule in rules or "all" in rules)


# -- discovery -------------------------------------------------------------

def iter_python_files(paths: Sequence[Any]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(p.parts)
            )
        else:
            candidates = [path]
        for p in candidates:
            key = p.resolve()
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def _relative_label(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


# -- per-file scan ---------------------------------------------------------

class ScanResult(NamedTuple):
    """Picklable outcome of one file's scan (crosses the worker boundary)."""

    findings: List[Finding]
    suppressed: int
    contributions: Dict[str, List[Any]]
    pkg: Optional[str]
    rel: str
    pragmas: Tuple[Dict[int, Set[str]], Set[str]]


def _scan_one(path_str: str, select: Optional[frozenset] = None) -> ScanResult:
    """Parse one file *once* and run every applicable rule over it."""
    from repro.analysis.registry import all_rules

    path = Path(path_str)
    rel = _relative_label(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        finding = Finding(path=rel, line=getattr(exc, "lineno", 1) or 1,
                          col=0, rule=PARSE_RULE_ID,
                          message=f"cannot parse file: {exc}")
        return ScanResult([finding], 0, {}, None, rel, ({}, set()))

    ctx = FileContext(path, rel, source, tree)
    rules = all_rules()
    per_line, per_file, problems = _parse_pragmas(
        source, ctx.lines, {rule.id for rule in rules} | {"all"}
    )
    findings = [
        Finding(path=rel, line=lineno, col=0, rule=PRAGMA_RULE_ID,
                message=message)
        for lineno, message in problems
    ]
    suppressed = 0
    for rule in rules:
        if select is not None and rule.id not in select:
            continue
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if _suppressed(finding, per_line, per_file):
                suppressed += 1
            else:
                findings.append(finding)
    return ScanResult(findings, suppressed, ctx.contributions, ctx.pkg,
                      rel, (per_line, per_file))


# -- reports ---------------------------------------------------------------

class LintReport:
    """The outcome of one scan; renders as text or JSON."""

    def __init__(self, findings: List[Finding], n_files: int,
                 suppressed: int) -> None:
        self.findings = sorted(findings)
        self.n_files = n_files
        self.suppressed = suppressed

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def counts(self) -> Dict[str, int]:
        by_rule: Dict[str, int] = {}
        for f in self.findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        return dict(sorted(by_rule.items()))

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        summary = (f"{len(self.findings)} finding"
                   f"{'' if len(self.findings) == 1 else 's'} "
                   f"({self.suppressed} suppressed) "
                   f"in {self.n_files} files")
        if self.findings:
            lines.append("")
        lines.append(summary)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "files": self.n_files,
            "suppressed": self.suppressed,
            "rules": self.counts(),
            "findings": [f.as_dict() for f in self.findings],
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


# -- entry point -----------------------------------------------------------

def lint_paths(
    paths: Sequence[Any],
    select: Optional[Iterable[str]] = None,
    disable: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
) -> LintReport:
    """Lint files/directories; the API behind ``repro lint``.

    ``select`` limits the run to the given rule ids, ``disable`` drops
    ids from the (possibly selected) set -- both validated against the
    registry so typos fail loudly.  ``jobs`` caps the worker processes
    (default: one per CPU, serial for small scans where pool start-up
    would dominate).  Every pragma must carry a ``-- why`` and name
    registered ids, or it is an E001 finding.
    """
    from repro.analysis.registry import all_rules, get_rule

    known = {rule.id for rule in all_rules()}
    chosen = set(known)
    if select is not None:
        for rid in select:
            get_rule(rid)  # raises KeyError on typos
        chosen = set(select)
    if disable is not None:
        for rid in disable:
            get_rule(rid)
        chosen -= set(disable)
    selected = frozenset(chosen)

    files = iter_python_files(paths)
    findings: List[Finding] = []
    suppressed = 0
    project = ProjectState()

    def _absorb(result: ScanResult) -> None:
        nonlocal suppressed
        findings.extend(result.findings)
        suppressed += result.suppressed
        project.merge(result.contributions, result.pkg)
        project.pragmas[result.rel] = result.pragmas

    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(files) or 1))
    if jobs > 1 and len(files) >= 8:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(
                _scan_one,
                [str(p) for p in files],
                [selected] * len(files),
                chunksize=max(1, len(files) // (jobs * 4)),
            )
            for result in results:
                _absorb(result)
    else:
        for path in files:
            _absorb(_scan_one(str(path), selected))

    for rule in all_rules():
        if rule.id in selected:
            for finding in rule.finalize(project):
                if project.suppressed(finding):
                    suppressed += 1
                else:
                    findings.append(finding)

    return LintReport(findings, n_files=len(files), suppressed=suppressed)

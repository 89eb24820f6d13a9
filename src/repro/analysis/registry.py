"""The rule registry: how invariant checks plug into the lint engine.

A *rule* encodes one repo-specific invariant about a single file as a
class with a stable id (``DET001``, ``TEL001``, ...).  Registration is
one decorator::

    from repro.analysis.registry import Rule, register

    @register
    class NoSleep(Rule):
        id = "DET005"
        name = "no-thread-sleep"
        invariant = "sim code never blocks the OS thread"

        def check(self, ctx):
            for node in ctx.walk(ast.Call):
                if ctx.call_chain(node) == ("time", "sleep"):
                    yield ctx.finding(self, node, "time.sleep() blocks ...")

and a future PR's new check is ~30 lines: subclass, decorate, drop the
module next to the others in :mod:`repro.analysis.rules` (imported by
that package's ``__init__``), write one fixture test.

Two hooks:

``check(ctx)``
    Per-file pass over one parsed module (see
    :class:`repro.analysis.engine.FileContext`).  Runs in a worker
    process when the scan is parallel, so findings must come from
    ``ctx``/the AST alone.
``finalize(project)``
    Optional whole-scan pass in the parent process, after every file
    was checked.  ``project`` carries the merged ``ctx.contribute``
    payloads -- this is how TEL001 does its cross-file dead-event check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import FileContext, Finding, ProjectState

__all__ = ["Rule", "register", "all_rules", "get_rule", "load_rules"]


class Rule:
    """Base class: one invariant, one stable id."""

    #: Stable identifier used in output, ``--select``/``--disable`` and
    #: ``# lint: disable=`` pragmas.
    id: str = ""
    #: Short kebab-case label for ``--list-rules``.
    name: str = ""
    #: One-line statement of the invariant the rule protects.
    invariant: str = ""

    def applies(self, ctx: "FileContext") -> bool:
        """Whether this file is in the rule's scope (default: yes)."""
        return True

    def check(self, ctx: "FileContext") -> Iterable["Finding"]:
        """Yield findings for one parsed file."""
        return ()

    def finalize(self, project: "ProjectState") -> Iterable["Finding"]:
        """Yield whole-scan findings after all files were checked."""
        return ()


_RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index the rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _RULES and type(_RULES[rule.id]) is not cls:
        raise ValueError(f"duplicate rule id {rule.id}")
    _RULES[rule.id] = rule
    return cls


def load_rules() -> None:
    """Import the built-in rule modules (idempotent)."""
    import repro.analysis.rules  # noqa: F401  (import-for-registration)


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id (stable output order)."""
    load_rules()
    return [_RULES[rid] for rid in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    load_rules()
    try:
        return _RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_RULES))}"
        ) from None

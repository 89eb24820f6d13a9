"""CACHE001 -- probing and composition caches stay behind ``fast_paths``.

The exactness contract (docs/performance.md) lets the fast paths cache
work only because (a) every cache can be switched off via
``GridConfig.fast_paths`` to re-derive the ground truth, and (b) a
cache hit's only side effects are counters -- never bus events, spans
or RNG draws, which would re-order the deterministic stream.

Two static approximations of that contract, scoped to ``probing/`` and
``core/`` (discovery in ``lookup/`` holds no cache to police):

* **gate present** -- a module that builds a :class:`BoundedCache`,
  calls :func:`trim_mapping`, or touches a ``*cache*``/``*memo*``
  attribute must reference ``fast_paths`` somewhere; a cache with no
  switch cannot honour the contract.  (Modules whose caches are
  injected and gated by their *caller* carry a justified
  ``# lint: disable-file=CACHE001`` pragma instead.)
* **counter-only** -- inside a conditional whose test mentions
  ``fast_paths`` (or a ``cache`` variable), direct bus emits, tracer
  spans and ``rng`` draws are flagged.  Counter increments
  (``metrics.counter(...).inc()``, ``stats.hits += 1``) pass untouched,
  as do calls into accounting helpers.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import FileContext, Finding
from repro.analysis.registry import Rule, register

_GUARD_NAMES = frozenset({"fast_paths"})
_CACHE_CALLS = frozenset({"BoundedCache", "trim_mapping"})
_CACHE_METHODS = frozenset({"get", "put", "check_generation", "clear", "pop"})


def _names_in(node: ast.AST) -> Iterable[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_guard_test(test: ast.AST) -> bool:
    for name in _names_in(test):
        if name in _GUARD_NAMES or "cache" in name:
            return True
    return False


@register
class FastPathCaches(Rule):
    """CACHE001 -- caches gated by fast_paths, hits counter-only."""

    id = "CACHE001"
    name = "fast-path-caches"
    invariant = ("probing/core caches are switchable via fast_paths "
                 "and their guarded branches have counter-only side effects")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.pkg is not None \
            and ctx.pkg.startswith(("probing/", "core/"))

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        has_gate = any(
            name in _GUARD_NAMES for name in _names_in(ctx.tree)
        )

        # (a) gate present for every cache construction/use.
        if not has_gate:
            for node in ctx.walk(ast.Call):
                chain = ctx.call_chain(node)
                if not chain:
                    continue
                if chain[-1] in _CACHE_CALLS:
                    yield ctx.finding(
                        self, node,
                        f"{chain[-1]} used but this module never consults "
                        "fast_paths; caches must be "
                        "switchable to re-derive the uncached ground truth",
                    )
                elif (
                    chain[-1] in _CACHE_METHODS and len(chain) >= 2
                    and ("cache" in chain[-2].lower()
                         or "memo" in chain[-2].lower())
                ):
                    yield ctx.finding(
                        self, node,
                        f"cache access {'.'.join(chain[-2:])}() in a module "
                        "that never consults fast_paths; gate "
                        "the cache or justify with a pragma",
                    )

        # (b) guarded branches stay counter-only.
        for node in ctx.walk(ast.If):
            if not _is_guard_test(node.test):
                continue
            for stmt in node.body + node.orelse:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    chain = ctx.call_chain(call)
                    if len(chain) < 2:
                        continue
                    head, method = chain[-2], chain[-1]
                    offence = None
                    if method == "emit_event" or (
                        method == "emit" and head in ("bus", "_bus")
                    ):
                        offence = "bus event"
                    elif method in ("span", "open") and head == "tracer":
                        offence = "span"
                    elif head == "rng" or (len(chain) == 2 and
                                           chain[0] == "rng"):
                        offence = "RNG draw"
                    if offence is not None:
                        yield ctx.finding(
                            self, call,
                            f"{offence} {'.'.join(chain)}() inside a "
                            "cache-guarded branch; cached fast paths may "
                            "only touch counters (exactness contract, "
                            "docs/performance.md)",
                        )

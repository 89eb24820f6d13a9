"""Determinism rules: the invariants behind bit-identical seeded runs.

DET001  no wall-clock reads outside the profiling layer
DET002  all randomness flows through the seeded streams of sim/rng.py
DET003  no iteration over unordered containers in hot sim paths

Every rule here is syntactic: it sees one file's AST plus its import
table, never runtime types.  The docs (docs/static-analysis.md) list
the approximations; the escape hatch for a justified exception is a
``# lint: disable=RULE -- why`` pragma on the offending line.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Tuple

from repro.analysis.engine import FileContext, Finding
from repro.analysis.registry import Rule, register

#: Wall-clock functions of the ``time`` module.
_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
})

#: Wall-clock constructors of the ``datetime`` module.
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: ``datetime`` classes whose ``now``/``today`` read the wall clock.
_DATETIME_CLASSES = frozenset({"datetime.datetime", "datetime.date"})


@register
class NoWallClock(Rule):
    """DET001 -- wall-clock reads poison seeded reproducibility.

    Simulated time comes from the engine clock; wall time may only be
    observed by the profiling layer (``telemetry/profiling.py``) and
    the benchmarks, neither of which feeds the deterministic event
    stream.
    """

    id = "DET001"
    name = "no-wall-clock"
    invariant = ("wall-clock reads only in telemetry/profiling.py and "
                 "benchmarks/")

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.is_benchmarks and ctx.pkg != "telemetry/profiling.py"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        modules = ctx.imports
        names = ctx.imported_names
        for node in ctx.walk(ast.Call):
            chain = ctx.call_chain(node)
            if not chain:
                continue
            called: Optional[str] = None
            if len(chain) == 2 and modules.get(chain[0]) == "time" \
                    and chain[1] in _TIME_FNS:
                called = f"time.{chain[1]}"
            elif len(chain) == 1:
                target = names.get(chain[0], "")
                if target.startswith("time.") and target[5:] in _TIME_FNS:
                    called = target
            if called is None and chain[-1] in _DATETIME_FNS:
                root = chain[0]
                # datetime.datetime.now(), datetime.date.today()
                if len(chain) == 3 and modules.get(root) == "datetime":
                    called = ".".join(chain)
                # datetime.now() / date.today() via from-imports
                elif len(chain) == 2 and names.get(root) in _DATETIME_CLASSES:
                    called = f"{names[root]}.{chain[-1]}"
            if called is not None:
                yield ctx.finding(
                    self, node,
                    f"wall-clock read {called}() breaks seeded determinism; "
                    "route wall time through telemetry/profiling.py "
                    "(or justify with a pragma)",
                )


@register
class SeededStreamsOnly(Rule):
    """DET002 -- randomness must come from the named streams.

    A stray ``random.random()`` or module-level numpy draw perturbs
    every draw downstream of it; ``sim/rng.py`` exists so each
    subsystem owns an independent, replayable stream.
    """

    id = "DET002"
    name = "seeded-streams-only"
    invariant = ("sim code draws randomness only via sim/rng.py streams; "
                 "no stdlib random, no module-level numpy RNG")

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.is_tests and not ctx.is_benchmarks \
            and ctx.pkg != "sim/rng.py"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        modules = ctx.imports
        names = ctx.imported_names
        for node in ctx.walk(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                if any(a.name == "random" or a.name.startswith("random.")
                       for a in node.names):
                    yield ctx.finding(
                        self, node,
                        "stdlib random imported; draw from the seeded "
                        "streams of sim/rng.py instead",
                    )
            elif node.module == "random" or (
                node.module or ""
            ).startswith("random."):
                yield ctx.finding(
                    self, node,
                    "stdlib random imported; draw from the seeded "
                    "streams of sim/rng.py instead",
                )
        for node in ctx.walk(ast.Call):
            chain = ctx.call_chain(node)
            if len(chain) >= 3 and modules.get(chain[0]) == "numpy" \
                    and chain[1] == "random":
                yield ctx.finding(
                    self, node,
                    f"un-streamed numpy RNG {'.'.join(chain)}() bypasses "
                    "the stream registry; use RngStreams.stream(name) "
                    "from sim/rng.py",
                )
            elif len(chain) == 1 and names.get(
                chain[0], ""
            ).startswith("numpy.random."):
                yield ctx.finding(
                    self, node,
                    f"un-streamed numpy RNG {names[chain[0]]}() bypasses "
                    "the stream registry; use RngStreams.stream(name) "
                    "from sim/rng.py",
                )


#: Package prefixes outside the hot sim plane (reporting/tooling layers,
#: where output ordering is already fixed by explicit sorts/tables).
_DET003_EXEMPT = ("telemetry/", "experiments/", "analysis/")

_SET_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference",
})


def _is_set_typed(node: ast.AST) -> bool:
    """Statically set-typed expressions (syntactic approximation)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_typed(node.left) or _is_set_typed(node.right)
    return False


@register
class OrderedIterationOnly(Rule):
    """DET003 -- hash-ordered iteration is a portability time bomb.

    Iterating a ``set`` (or a ``dict.keys()`` view built from one)
    yields a platform/hash-seed dependent order; one reordered loop in a
    hot sim path reorders RNG draws and telemetry events.  Wrap the
    iterable in ``sorted(...)`` or keep an ordered container.
    """

    id = "DET003"
    name = "ordered-iteration-only"
    invariant = ("hot sim paths never iterate bare sets or .keys() views; "
                 "ordering must be explicit")

    def applies(self, ctx: FileContext) -> bool:
        if ctx.is_tests or ctx.is_benchmarks:
            return False
        return ctx.pkg is None or not ctx.pkg.startswith(_DET003_EXEMPT)

    def _iterables(self, ctx: FileContext) -> Iterator[Tuple[ast.AST, ast.AST]]:
        for node in ctx.walk():
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node, node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    yield node, gen.iter

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for holder, iterable in self._iterables(ctx):
            if _is_set_typed(iterable):
                yield ctx.finding(
                    self, iterable,
                    "iteration over an unordered set expression is "
                    "hash-order dependent; wrap it in sorted(...) or use "
                    "an ordered container",
                )
            elif isinstance(iterable, ast.Call) and isinstance(
                iterable.func, ast.Attribute
            ) and iterable.func.attr == "keys" and not iterable.args:
                yield ctx.finding(
                    self, iterable,
                    "iterating a .keys() view hides the ordering contract; "
                    "iterate the dict directly (insertion order) or "
                    "sorted(...) when order matters",
                )

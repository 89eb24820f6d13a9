"""Cross-module shard-hazard rules (the ``--whole-program`` pass).

DET004   one seeded RNG stream reachable from two planes
SHARD001 module-level/singleton mutable state reachable from >1 plane
TEL002   unordered set values escaping a module boundary

These are the hazards that will break the sharded event engine
(ROADMAP item 1): once independent grid regions simulate on separate
workers, anything two planes share -- a stream, a module-level dict, a
hash-ordered collection crossing a plane boundary -- becomes a
cross-shard ordering bug that no per-file rule can see.  All three
rules consume the dataflow facts of :mod:`repro.analysis.dataflow`
and the import graph of :mod:`repro.analysis.callgraph`, and only arm
under ``repro lint --whole-program`` (partial scans under-report by
construction: missing files mean missing edges, never extra ones).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.callgraph import (
    MODULE_FACTS_KEY,
    ImportGraph,
    build_graph,
)
from repro.analysis.dataflow import (
    SET_RETURN_FACTS_KEY,
    STATE_FACTS_KEY,
    STREAM_FACTS_KEY,
    SetReturn,
    StateFacts,
    StreamUse,
    contribute_facts,
)
from repro.analysis.engine import FileContext, Finding, ProjectState
from repro.analysis.rules.determinism import _is_set_typed
from repro.analysis.registry import Rule, register

#: Planes that are offline tooling, not part of the sharded runtime:
#: their module-level registries (lint rules, experiment and scenario
#: tables) never cross a shard boundary.
_OFFLINE_PLANES = frozenset({"analysis", "experiments", "cli", "top"})


def _arm(ctx: FileContext) -> bool:
    """Common gate: whole-program scan over package source files."""
    return ctx.whole_program and not ctx.is_tests \
        and not ctx.is_benchmarks and ctx.pkg is not None


def _graph(project: ProjectState) -> ImportGraph:
    return build_graph(project.contributions.get(MODULE_FACTS_KEY, ()))


@register
class StreamAliasing(Rule):
    """DET004 -- one stream, one plane.

    ``sim/rng.py`` gives each subsystem an independent replayable
    stream precisely so planes never contend on draw order.  A stream
    drawn from (or held by) two planes couples their schedules: under
    the sharded engine the interleaving of those draws depends on
    shard placement, and byte-identical telemetry is gone.
    """

    id = "DET004"
    name = "stream-aliasing"
    invariant = "each named RNG stream is reachable from exactly one plane"

    def applies(self, ctx: FileContext) -> bool:
        return _arm(ctx)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        contribute_facts(ctx)
        return ()

    def finalize(self, project: ProjectState) -> Iterable[Finding]:
        if not project.whole_program:
            return
        by_stream: Dict[str, List[StreamUse]] = {}
        for use in project.contributions.get(STREAM_FACTS_KEY, ()):
            by_stream.setdefault(use.stream, []).append(use)
        for stream in sorted(by_stream):
            uses = sorted(by_stream[stream],
                          key=lambda u: (u.rel, u.lineno, u.plane))
            planes = sorted({u.plane for u in uses})
            if len(planes) < 2:
                continue
            sites = ", ".join(
                f"{u.plane} ({u.rel}:{u.lineno}, {u.via})" for u in uses
            )
            first = uses[0]
            yield Finding(
                path=first.rel, line=first.lineno, col=0, rule=self.id,
                message=(
                    f"RNG stream {stream!r} is reachable from "
                    f"{len(planes)} planes [{', '.join(planes)}]: {sites}; "
                    "give each plane its own derived stream "
                    "(RngStreams.stream with a distinct name)"
                ),
            )


@register
class SharedMutableState(Rule):
    """SHARD001 -- module-level mutable state is the shard-boundary list.

    A module-level dict/list/singleton mutated at runtime and imported
    by a second plane is state the sharded engine must either
    replicate, partition, or serialise access to.  This rule *is* that
    hazard inventory: everything it cannot prove single-plane must be
    fixed, allowlisted with an owner, or pragma'd with a why.
    """

    id = "SHARD001"
    name = "shared-mutable-state"
    invariant = ("runtime-mutated module-level state is reachable from "
                 "at most one plane")

    #: (module, name) pairs audited as safe cross-plane state.  Keep
    #: this list justified: each entry names its synchronisation story,
    #: and must name a symbol that exists (tests/analysis/test_rules.py
    #: imports every entry).
    allowlist: frozenset = frozenset()

    def applies(self, ctx: FileContext) -> bool:
        return _arm(ctx)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        contribute_facts(ctx)
        return ()

    def finalize(self, project: ProjectState) -> Iterable[Finding]:
        if not project.whole_program:
            return
        facts: List[StateFacts] = list(
            project.contributions.get(STATE_FACTS_KEY, ())
        )
        mutated: Set[Tuple[str, str]] = set()
        referrers: Dict[Tuple[str, str], Set[str]] = {}
        for fact in facts:
            mutated.update(fact.mutations)
            for owner_mod, name, ref_mod in fact.refs:
                referrers.setdefault((owner_mod, name), set()).add(ref_mod)
        graph = _graph(project)
        all_defs = sorted(
            (d for fact in facts for d in fact.defs),
            key=lambda d: (d.rel, d.lineno),
        )
        for d in all_defs:
            owner_plane = graph.plane(d.module)
            if owner_plane is None or owner_plane in _OFFLINE_PLANES:
                continue
            if (d.module, d.name) in self.allowlist:
                continue
            if (d.module, d.name) not in mutated:
                continue
            planes = {owner_plane}
            for ref_mod in referrers.get((d.module, d.name), ()):
                plane = graph.plane(ref_mod)
                if plane is not None and plane not in _OFFLINE_PLANES:
                    planes.add(plane)
            if len(planes) < 2:
                continue
            yield Finding(
                path=d.rel, line=d.lineno, col=0, rule=self.id,
                message=(
                    f"module-level mutable state {d.name!r} ({d.kind}) is "
                    f"mutated at runtime and reachable from planes "
                    f"[{', '.join(sorted(planes))}]; a shard boundary "
                    "between them splits this object -- move it behind an "
                    "owning plane's API, or allowlist it with a "
                    "synchronisation story"
                ),
            )


#: Emit-method names whose arguments flow into telemetry records.
_EMIT_METHODS = frozenset({"emit", "emit_event"})
_EMIT_HEADS = frozenset({"bus", "_bus", "tracer", "_tracer"})


@register
class SetEscapesBoundary(Rule):
    """TEL002 -- unordered values must not cross module boundaries.

    DET003 stops *iteration* over sets inside one file; this is its
    cross-module closure.  A set passed into a telemetry emit or
    returned from a public function imported by another plane carries
    hash ordering across the boundary -- the consumer iterates or
    serialises it and the byte-identical-telemetry contract breaks on
    the other side of the import.
    """

    id = "TEL002"
    name = "no-set-escapes"
    invariant = ("telemetry payloads and cross-plane public returns are "
                 "never bare sets; ordering is fixed before the boundary")

    def applies(self, ctx: FileContext) -> bool:
        return _arm(ctx)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        contribute_facts(ctx)
        for node in ctx.walk(ast.Call):
            chain = ctx.call_chain(node)
            if len(chain) < 2 or chain[-1] not in _EMIT_METHODS:
                continue
            if chain[-1] == "emit" and chain[-2] not in _EMIT_HEADS:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if _is_set_typed(arg):
                    yield ctx.finding(
                        self, arg,
                        "unordered set value passed into a telemetry "
                        "emit; the export serialises it in hash order -- "
                        "wrap it in sorted(...) first",
                    )

    def finalize(self, project: ProjectState) -> Iterable[Finding]:
        if not project.whole_program:
            return
        graph = _graph(project)
        rets: List[SetReturn] = sorted(
            project.contributions.get(SET_RETURN_FACTS_KEY, ()),
            key=lambda r: (r.rel, r.lineno),
        )
        for ret in rets:
            if ret.plane in _OFFLINE_PLANES:
                continue
            foreign = sorted(
                graph.importer_planes(ret.module)
                - {ret.plane} - _OFFLINE_PLANES
            )
            if not foreign:
                continue
            yield Finding(
                path=ret.rel, line=ret.lineno, col=0, rule=self.id,
                message=(
                    f"public {ret.qualname}() returns an unordered set and "
                    f"its module is imported from other planes "
                    f"[{', '.join(foreign)}]; return a sorted tuple/list "
                    "or document+enforce the ordering at the boundary"
                ),
            )

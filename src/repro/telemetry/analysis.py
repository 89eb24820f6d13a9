"""Trace analytics: span-tree reconstruction over exported streams.

PR 1's tracer answers "what happened" -- this module answers "where did
the time go".  It consumes ``span`` records from either source:

* a telemetry JSONL export (``repro run --telemetry out.jsonl``), whose
  durations are *simulated minutes*.  Setup-phase spans (request, QCS,
  selection) close at the same sim instant they open -- the pipeline is
  synchronous -- so their sim durations are zero by construction; the
  detached ``session`` spans carry the meaningful sim intervals.
* a profile trace (``repro profile run --trace-out prof.jsonl``), the
  same record shape with *wall-clock seconds* (tagged ``"unit": "s"``).
  This is where per-request hot-path attribution lives; wall time never
  enters the telemetry stream itself (seeded byte-determinism).

Offered analyses:

* :func:`build_forest` -- reconstruct the span trees (parent links come
  from the tracer's explicit nesting stack, so no heuristics needed);
* :func:`aggregate_spans` -- per-name count/total/self-time tables;
* :func:`critical_path` / :func:`phase_report` -- which phase (graph
  build, DP, lookup, probing, admission, ...) dominated each request;
* :func:`folded_stacks` -- flamegraph.pl / speedscope compatible
  folded-stack output (``root;child;leaf <integer weight>``).

All of it is plain post-processing: nothing here touches the bus, the
RNG streams or the simulator, so analysing a trace can never perturb a
run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "SpanRecord",
    "SpanNode",
    "TraceAnalysisError",
    "load_jsonl_spans",
    "build_forest",
    "aggregate_spans",
    "format_span_table",
    "critical_path",
    "phase_report",
    "folded_stacks",
    "render_folded",
    "render_forest",
]

#: Field names that are structural, not user payload, on a span record.
_STRUCTURAL = ("name", "id", "parent", "start", "unit")


class TraceAnalysisError(ValueError):
    """A stream could not be parsed into span records."""


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: a named ``[start, end]`` interval with a parent."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    fields: Mapping[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class SpanNode:
    """A span record plus its reconstructed children."""

    record: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def duration(self) -> float:
        return self.record.duration

    @property
    def self_time(self) -> float:
        """Duration not covered by child spans (clamped at zero)."""
        return max(
            0.0, self.duration - sum(c.duration for c in self.children)
        )

    def walk(self) -> Iterable["SpanNode"]:
        """Depth-first over this subtree, parents before children."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


# -- ingestion -------------------------------------------------------------

def load_jsonl_spans(
    source: Union[str, IO[str]]
) -> Tuple[List[SpanRecord], str]:
    """Parse a JSONL stream into ``(span records, unit)``.

    Accepts both telemetry exports (sim minutes, unit ``"min"``) and
    profiler trace files (wall seconds, each record tagged
    ``"unit": "s"``).  Non-span events are skipped, so a full telemetry
    export works directly.
    """
    if hasattr(source, "read"):
        return _parse_jsonl(source)
    with open(source, "r", encoding="utf-8") as fh:
        return _parse_jsonl(fh)


def _parse_jsonl(fh: IO[str]) -> Tuple[List[SpanRecord], str]:
    records: List[SpanRecord] = []
    unit = "min"
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceAnalysisError(
                f"invalid JSON on line {lineno}: {exc}"
            ) from None
        if rec.get("event") != "span":
            continue
        try:
            records.append(SpanRecord(
                name=rec["name"],
                span_id=rec["id"],
                parent_id=rec.get("parent"),
                start=rec["start"],
                end=rec["t"],
                fields={
                    k: v for k, v in rec.items()
                    if k not in _STRUCTURAL + ("t", "seq", "event")
                },
            ))
        except KeyError as exc:
            raise TraceAnalysisError(
                f"span record on line {lineno} is missing field {exc}"
            ) from None
        if rec.get("unit") == "s":
            unit = "s"
    return records, unit


# -- forest reconstruction --------------------------------------------------

def build_forest(records: Sequence[SpanRecord]) -> List[SpanNode]:
    """Reconstruct span trees; roots keep stream order, children by start.

    A record whose parent id never appears (e.g. the parent span was
    still open when the export happened) becomes a root rather than
    being dropped.
    """
    nodes = {r.span_id: SpanNode(r) for r in records}
    roots: List[SpanNode] = []
    for r in records:
        node = nodes[r.span_id]
        parent = nodes.get(r.parent_id) if r.parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.record.start, n.record.span_id))
    return roots


# -- per-name aggregation ----------------------------------------------------

@dataclass
class SpanStats:
    name: str
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    max_duration: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def aggregate_spans(forest: Sequence[SpanNode]) -> Dict[str, SpanStats]:
    """Per-span-name totals over every node in the forest."""
    stats: Dict[str, SpanStats] = {}
    for root in forest:
        for node in root.walk():
            s = stats.get(node.name)
            if s is None:
                s = stats[node.name] = SpanStats(node.name)
            s.count += 1
            s.total += node.duration
            s.self_total += node.self_time
            s.max_duration = max(s.max_duration, node.duration)
    return dict(sorted(stats.items()))


def format_span_table(stats: Mapping[str, SpanStats], unit: str) -> str:
    """Aligned text table; durations in ms (wall) or minutes (sim)."""
    if not stats:
        return "(no spans)"
    if unit == "s":
        scale, dur_unit = 1e3, "ms"
    else:
        scale, dur_unit = 1.0, "min"
    width = max(max(len(n) for n in stats), len("span"))
    lines = [
        f"{'span':<{width}}     count  total {dur_unit:<3}   self {dur_unit:<3}"
        f"   mean {dur_unit:<3}    max {dur_unit:<3}"
    ]
    by_self = sorted(
        stats.values(), key=lambda s: (-s.self_total, s.name)
    )
    for s in by_self:
        lines.append(
            f"{s.name:<{width}}  {s.count:>8d} {s.total * scale:>10.3f} "
            f"{s.self_total * scale:>10.3f} {s.mean * scale:>10.3f} "
            f"{s.max_duration * scale:>10.3f}"
        )
    return "\n".join(lines)


# -- critical paths ---------------------------------------------------------

def critical_path(node: SpanNode) -> List[SpanNode]:
    """The root-to-leaf chain following the largest-duration child."""
    chain = [node]
    while node.children:
        node = max(
            node.children,
            key=lambda c: (c.duration, -c.record.start, -c.record.span_id),
        )
        chain.append(node)
    return chain


def _dominant_phase(root: SpanNode) -> Tuple[str, float]:
    """The descendant name with the largest self-time under ``root``."""
    best_name, best = root.name, -1.0
    for node in root.walk():
        if node.self_time > best:
            best_name, best = node.name, node.self_time
    return best_name, best


def phase_report(
    forest: Sequence[SpanNode], root_name: str = "request"
) -> str:
    """Which phase dominated each ``root_name`` tree, and by how much.

    Reports (a) the per-phase self-time breakdown across all matching
    trees and (b) the distribution of per-tree dominant phases.  When
    every span has zero duration (sim-time setup spans), falls back to
    span counts and says so.
    """
    trees = [r for r in forest if r.name == root_name]
    if not trees:
        names = sorted({r.name for r in forest})
        return (
            f"(no '{root_name}' spans in this trace; "
            f"roots present: {', '.join(names) if names else 'none'})"
        )
    stats = aggregate_spans(trees)
    grand_total = sum(s.self_total for s in stats.values())
    lines = [f"{len(trees)} '{root_name}' trees, "
             f"cumulative time {sum(t.duration for t in trees):g}"]
    width = max(len(n) for n in stats)
    if grand_total > 0:
        lines.append(f"  {'phase':<{width}}   self total      share      count")
        for s in sorted(stats.values(), key=lambda s: -s.self_total):
            lines.append(
                f"  {s.name:<{width}}  {s.self_total:>12.6f} "
                f"{s.self_total / grand_total:>9.1%} {s.count:>10d}"
            )
        dominants: Dict[str, int] = {}
        for t in trees:
            name, _ = _dominant_phase(t)
            dominants[name] = dominants.get(name, 0) + 1
        lines.append("  dominant phase per tree:")
        for name, n in sorted(dominants.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<{width}}  {n:>6d} ({n / len(trees):.1%})")
        # Root durations can all be zero (sim-time setup trees whose only
        # timed descendants are session lifetimes); fall back to the
        # heaviest subtree.
        longest = max(
            trees,
            key=lambda t: (t.duration, sum(n.duration for n in t.walk())),
        )
        chain = critical_path(longest)
        lines.append(
            "  critical path of slowest tree: "
            + " > ".join(n.name for n in chain)
            + f"  ({longest.duration:g})"
        )
    else:
        # Zero-duration trees: the synchronous setup pipeline in sim
        # time.  Counts still show the tree shape; wall attribution
        # needs a profile trace.
        lines.append("  (all spans have zero duration at this clock; "
                     "showing counts -- use `repro profile run` for "
                     "wall-clock attribution)")
        lines.append(f"  {'phase':<{width}}      count")
        for s in sorted(stats.values(), key=lambda s: (-s.count, s.name)):
            lines.append(f"  {s.name:<{width}}  {s.count:>9d}")
    return "\n".join(lines)


# -- flame output -----------------------------------------------------------

def folded_stacks(
    forest: Sequence[SpanNode], by_count: bool = False
) -> Dict[str, int]:
    """Semicolon-folded stacks with integer weights.

    Weights are per-stack *self* time scaled to an integer unit
    (microseconds for wall traces, micro-minutes for sim traces -- the
    consumer only cares about ratios).  With ``by_count=True`` (or
    automatically when every duration rounds to zero) each closed span
    weighs 1 instead.
    """
    def collect(weigh) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for root in forest:
            stack: List[str] = []

            def visit(node: SpanNode) -> None:
                stack.append(node.name)
                w = weigh(node)
                if w > 0:
                    key = ";".join(stack)
                    out[key] = out.get(key, 0) + w
                for child in node.children:
                    visit(child)
                stack.pop()

            visit(root)
        return out

    if not by_count:
        stacks = collect(lambda n: int(round(n.self_time * 1e6)))
        if stacks:
            return stacks
    return collect(lambda n: 1)


def render_folded(stacks: Mapping[str, int]) -> str:
    """The classic ``stack value`` lines flamegraph.pl/speedscope read."""
    return "\n".join(
        f"{stack} {value}" for stack, value in sorted(stacks.items())
    )


def render_forest(
    forest: Sequence[SpanNode], unit: str, limit: int = 200
) -> str:
    """Indented tree view with durations (offline twin of
    :func:`~repro.telemetry.spans.render_span_tree`)."""
    if not forest:
        return "(no spans)"
    scale, dur_unit = (1e3, "ms") if unit == "s" else (1.0, "min")
    lines: List[str] = []
    total = 0

    def visit(node: SpanNode, depth: int) -> None:
        nonlocal total
        total += 1
        if len(lines) >= limit:
            return
        extras = " ".join(f"{k}={v}" for k, v in node.record.fields.items())
        lines.append(
            f"{'  ' * depth}{node.name} "
            f"[{node.duration * scale:.3f} {dur_unit}]"
            + (f" {extras}" if extras else "")
        )
        for child in node.children:
            visit(child, depth + 1)

    for root in forest:
        visit(root, 0)
    if total > limit:
        lines.append(f"... ({total} spans total)")
    return "\n".join(lines)

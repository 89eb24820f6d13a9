"""The event and metric catalog: every name the instrumentation emits.

Kept as data (not prose) so the CLI (``repro telemetry catalog``), the
docs and the tests all read the same source of truth.  When adding an
instrumentation site, register its names here -- the telemetry tests
assert that a traced run emits no unknown event names.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "EVENT_CATALOG",
    "METRIC_CATALOG",
    "SPAN_CATALOG",
    "SLO_CATALOG",
    "format_catalog",
]

#: event name -> (fields, description)
EVENT_CATALOG: Dict[str, tuple] = {
    "request.setup": (
        "request_id, peer, application, level, status, admitted, "
        "lookup_hops, random_fallbacks, arrival_time, duration",
        "setup pipeline finished for one user request (any outcome)",
    ),
    "session.resolved": (
        "session_id, request_id, state, reason",
        "an admitted session completed or failed (metrics-layer feed)",
    ),
    "qcs.composed": (
        "application, n_nodes, n_edges, score, hops",
        "QCS found a QoS-consistent shortest path",
    ),
    "qcs.failed": (
        "application, n_nodes, n_edges",
        "consistency graph has no path to the source layer",
    ),
    "selection.hop": (
        "selecting_peer, chosen, n_candidates, n_known, fallback, phi",
        "one hop of the Φ/uptime peer-selection walk",
    ),
    "probe.refresh": (
        "target, epoch",
        "a probing epoch snapshot was taken (one probe message)",
    ),
    "lookup.done": (
        "key, from_peer, hops, protocol",
        "one routed DHT lookup resolved",
    ),
    "session.admitted": (
        "session_id, request_id, peers, duration",
        "atomic admission reserved every resource/connection",
    ),
    "session.completed": (
        "session_id, request_id",
        "session ran to its scheduled end",
    ),
    "session.failed": (
        "session_id, request_id, reason",
        "session torn down before its end",
    ),
    "session.released": (
        "session_id, request_id, held_minutes",
        "client-initiated early teardown (serving-plane DELETE)",
    ),
    "serve.request": (
        "method, route, status",
        "the serving plane answered one HTTP API request",
    ),
    "recovery.repaired": (
        "session_id, dead_peer, latency, old_peers, new_peers",
        "runtime failure recovery replaced the departed peer",
    ),
    "recovery.failed": (
        "session_id, dead_peer",
        "repair attempt gave up; session failed",
    ),
    "churn.join": ("peer", "a peer arrived (topological variation)"),
    "churn.leave": ("peer", "a peer departed (topological variation)"),
    "fault.injected": (
        "kind, site [, kind-specific fields]",
        "the fault injector made one operation misbehave",
    ),
    "retry.attempt": (
        "site, attempt, delay [, site fields]",
        "a hardened consumer retried after an injected failure",
    ),
    "retry.exhausted": (
        "site, attempts [, site fields]",
        "a retry budget ran dry; the plain failure path follows",
    ),
    "slo.state": (
        "slo, state, previous, value, burn, target",
        "a service-level objective changed state (ok|warn|breach)",
    ),
    "span": (
        "name, id, parent, start [, site fields]",
        "a traced interval closed (see repro.telemetry.spans)",
    ),
}

#: metric name -> (kind, description)
METRIC_CATALOG: Dict[str, tuple] = {
    "qcs.compositions": ("counter", "QCS runs attempted"),
    "qcs.graph_edges": ("counter", "consistency edges built, cumulative"),
    "qcs.graph_nodes": ("counter", "consistency nodes built, cumulative"),
    "qcs.no_path": ("counter", "compositions with no consistent path"),
    "selection.steps": ("counter", "peer-selection hops executed"),
    "selection.random_fallback": ("counter", "hops that fell back to random"),
    "selection.no_candidate": ("counter", "hops where no peer qualified"),
    "probe.messages_sent": ("counter", "probe messages (epoch snapshots)"),
    "probe.resolution_messages": ("counter", "neighbor-resolution messages"),
    "probe.tables": ("gauge", "neighbor tables currently materialized"),
    "lookup.count": ("counter", "routed DHT lookups"),
    "lookup.hops": ("histogram", "application-level hops per lookup"),
    "cache.qcs_plan.hits": ("counter", "QCS composes answered from a held plan"),
    "cache.qcs_plan.misses": (
        "counter", "QCS composes that relaxed a new (candidate set, user QoS)"
    ),
    "discovery.routed": ("counter", "registry discoveries (one routed read each)"),
    "store.generation": ("gauge", "SoA peer-store membership generation"),
    "store.rows_recycled": ("gauge", "SoA peer-store rows reused after departures"),
    "session.admitted": ("counter", "sessions admitted"),
    "session.completed": ("counter", "sessions completed"),
    "session.failed": ("counter", "sessions failed"),
    "session.released": ("counter", "sessions released early by their owner"),
    "serve.requests": ("counter", "HTTP API requests served"),
    "session.admission_rejected": ("counter", "admissions denied (rolled back)"),
    "recovery.repaired": ("counter", "sessions repaired after a departure"),
    "recovery.failed": ("counter", "repair attempts that gave up"),
    "recovery.latency": ("histogram", "departure -> repair, sim minutes"),
    "churn.arrivals": ("counter", "peers that joined"),
    "churn.departures": ("counter", "peers that left"),
    "fault.injected": ("counter", "faults injected by the active plan"),
    "retry.attempts": ("counter", "backoff retries across hardened sites"),
    "retry.exhausted": ("counter", "retry budgets that ran dry"),
    # windowed series (kind "window") are derived rolling views fed by the
    # serving plane's observability layer, never cumulative instruments;
    # tests/analysis/test_invariants.py matches them to the literal
    # ``track(...)`` sites both ways.
    "serve.window.requests": ("window", "compose requests, rolling window"),
    "serve.window.admits": ("window", "admitted composes, rolling window"),
    "serve.window.denials": ("window", "denied composes, rolling window"),
    "serve.window.faults": ("window", "injected faults, rolling window"),
    "serve.window.setup_latency_us": (
        "window",
        "serve-side setup wall latency (µs), rolling window",
    ),
}


#: span name -> description.  Span events all share the ``span`` entry of
#: EVENT_CATALOG; this indexes the *names* those events may carry, so the
#: catalog test (tests/analysis/test_invariants.py) can hold tracer call
#: sites and catalog two-way consistent just like plain events.
SPAN_CATALOG: Dict[str, str] = {
    "request": "one user request's whole setup pipeline",
    "qcs.compose": "QoS-consistent composition for one request",
    "qcs.graph_build": "consistency-graph construction inside qcs.compose",
    "qcs.solve": (
        "shortest-path sweep inside qcs.compose (kernel-neutral: the "
        "test-side dp / Dijkstra references emit this name too, so a "
        "run with one patched in exports byte-identical telemetry)"
    ),
    "lookup.candidates": "DHT candidate discovery for one request",
    "lookup.hosts": "DHT host-record fetches for the composed path",
    "selection": "the Φ/uptime peer-selection walk over all hops",
    "selection.hop": "one hop of the peer-selection walk",
    "admission": "atomic resource/connection admission",
    "probing.resolve": "neighbor resolution triggered by a request",
    "session": "an admitted session's admit -> resolution lifetime",
    "serve.request": (
        "one serving-plane request's whole handling, carrying the "
        "trace_id that correlates the serve -> aggregation -> "
        "composition -> probing span tree"
    ),
}


#: SLO name -> description.  Objectives declared in code
#: (``repro.telemetry.slo``) must use names registered here;
#: tests/analysis/test_invariants.py holds ``Objective(name=...)`` sites
#: and this catalog two-way consistent, same as events and spans.
SLO_CATALOG: Dict[str, str] = {
    "slo.psi": "rolling aggregation grade ψ must stay above its floor",
    "slo.setup_latency_p95": "rolling p95 setup latency must stay under ceiling",
    "slo.denial_rate": "rolling denied-compose fraction must stay under ceiling",
    "slo.fault_rate": "rolling injected-fault rate must stay under ceiling",
}


def format_catalog() -> str:
    """Both catalogs as one aligned text table (the CLI's output)."""
    lines = ["events"]
    width = max(len(n) for n in EVENT_CATALOG)
    for name, (fields, desc) in EVENT_CATALOG.items():
        lines.append(f"  {name:<{width}}  {desc}")
        lines.append(f"  {'':<{width}}    fields: {fields}")
    lines.append("")
    lines.append("spans (names carried by `span` events)")
    width = max(len(n) for n in SPAN_CATALOG)
    for name, desc in SPAN_CATALOG.items():
        lines.append(f"  {name:<{width}}  {desc}")
    lines.append("")
    lines.append("metrics")
    width = max(len(n) for n in METRIC_CATALOG)
    for name, (kind, desc) in METRIC_CATALOG.items():
        lines.append(f"  {name:<{width}}  [{kind}] {desc}")
    lines.append("")
    lines.append("slos (objective names carried by `slo.state` events)")
    width = max(len(n) for n in SLO_CATALOG)
    for name, desc in SLO_CATALOG.items():
        lines.append(f"  {name:<{width}}  {desc}")
    return "\n".join(lines)

"""Oracle for the serving plane's trace index: a scan of a span stream.

``ObservabilityPlane.trace`` answers from per-request trace records that
group spans as they close.  This is the scan it replaced, kept as the
reference: find the newest ``serve.request`` root carrying the id, then
keep every span whose parent chain reaches it, in close order.  Run over
a recording runtime's whole bus (``GridConfig(telemetry=True)`` retains
every event), it answers every trace the stream ever saw.
"""

from typing import Any, Dict, Iterable, Optional

from repro.telemetry.bus import BusEvent
from repro.telemetry.spans import render_span_tree


def reference_trace(
    stream: Iterable[BusEvent], trace_id: str
) -> Optional[Dict[str, Any]]:
    """The ``/traces/{trace_id}`` document over ``stream`` (None if absent)."""
    events = [e for e in stream if e.name == "span"]
    root: Optional[BusEvent] = None
    for event in reversed(events):
        fields = event.fields
        if (
            fields.get("name") == "serve.request"
            and fields.get("trace_id") == trace_id
        ):
            root = event
            break
    if root is None:
        return None
    root_id = root.fields["id"]
    by_id = {e.fields["id"]: e for e in events}

    def in_trace(event: BusEvent) -> bool:
        seen = set()
        cursor: Optional[BusEvent] = event
        while cursor is not None:
            span_id = cursor.fields["id"]
            if span_id == root_id:
                return True
            if span_id in seen:
                return False
            seen.add(span_id)
            parent = cursor.fields.get("parent")
            cursor = by_id.get(parent) if parent is not None else None
        return False

    members = [e for e in events if in_trace(e)]
    return {
        "trace_id": trace_id,
        "n_spans": len(members),
        "spans": [
            {"end": e.time, **e.fields} for e in members
        ],
        "tree": render_span_tree(members),
    }

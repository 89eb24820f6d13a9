"""``repro top``: a live terminal view of one running server.

Polls ``/status``, ``/slo`` and ``/traces`` and renders windowed rates,
SLO states and the worst recent request traces as one refreshing text
panel -- the operator's view the observability plane exists to feed.

:func:`render_top` is a pure function over the three JSON documents, so
the layout is unit-testable without a server; :func:`run_top` owns the
polling loop (wall-clock by nature: it watches a live process).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, TextIO

__all__ = ["render_top", "run_top"]

_STATE_MARK = {"ok": "·", "warn": "!", "breach": "✗"}


def _fmt_us(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}ms"
    return f"{value:.0f}µs"


def render_top(
    status: Dict[str, Any],
    slo: Optional[Dict[str, Any]],
    traces: Optional[Dict[str, Any]],
) -> str:
    """The three endpoint documents as one text panel."""
    lines: List[str] = []
    sessions = status.get("sessions", {})
    requests = status.get("requests", {})
    rss = (status.get("process") or {}).get("rss_kb")
    lines.append(
        f"repro top  scenario={status.get('scenario')} "
        f"algorithm={status.get('algorithm')} seed={status.get('seed')} "
        f"mode={status.get('mode')}"
    )
    lines.append(
        f"  sim_time={status.get('sim_time', 0.0):.2f}min  "
        f"peers={status.get('grid', {}).get('n_peers')}  "
        f"sessions active={sessions.get('active')}  "
        f"http={requests.get('http')}  "
        f"rss={rss if rss is not None else '?'}kB"
    )

    if slo is None:
        lines.append("")
        lines.append("(observability plane disabled on this server)")
        return "\n".join(lines)

    lines.append("")
    lines.append(f"slo: {slo.get('state', 'ok')} "
                 f"({slo.get('transitions', 0)} transitions, "
                 f"{slo.get('evaluations', 0)} evaluations)")
    objectives = slo.get("objectives", [])
    if objectives:
        width = max(len(o["slo"]) for o in objectives)
        for o in objectives:
            mark = _STATE_MARK.get(o["state"], "?")
            lines.append(
                f"  {mark} {o['slo']:<{width}}  {o['state']:<6} "
                f"value={o['value_long']:.3f} target={o['target']:g} "
                f"burn(long/short)={o['burn_long']:.2f}/{o['burn_short']:.2f}"
            )

    series = slo.get("series", {})
    if series:
        lines.append("")
        width = max(len(n) for n in series)
        lines.append(f"  {'windowed series':<{width}}  "
                     f"{'count':>8} {'rate':>10} {'p50':>10} "
                     f"{'p95':>10} {'p99':>10}")
        for name in sorted(series):
            s = series[name]
            wall = " (wall)" if s.get("wall") else ""
            lines.append(
                f"  {name:<{width}}  {s['count']:>8d} {s['rate']:>10.3f} "
                f"{s['p50']:>10.3f} {s['p95']:>10.3f} {s['p99']:>10.3f}"
                f"{wall}"
            )

    worst = (traces or {}).get("worst", [])
    if worst:
        lines.append("")
        lines.append("  worst recent traces (wall)")
        for t in worst[:5]:
            lines.append(
                f"    {t.get('trace_id')}  op={t.get('op')} "
                f"{_fmt_us(t.get('wall_us', 0.0))} "
                f"at sim {t.get('sim_start', 0.0):.2f}min"
            )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    out: TextIO = sys.stdout,
) -> int:
    """Poll the server and render until interrupted (or ``iterations``)."""
    import time

    from repro.serve.client import ServeApiError, ServeClient, wait_ready

    wait_ready(host, port, timeout=10.0)
    client = ServeClient(host, port)
    n = 0
    try:
        while iterations is None or n < iterations:
            status = client.status()
            try:
                slo = client.slo()
            except ServeApiError:
                slo = None
            try:
                traces = client.traces()
            except ServeApiError:
                traces = None
            if out.isatty():  # pragma: no cover - interactive only
                out.write("\x1b[2J\x1b[H")
            out.write(render_top(status, slo, traces))
            out.write("\n")
            out.flush()
            n += 1
            if iterations is not None and n >= iterations:
                break
            # A live operator view is wall-paced by definition.
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        client.close()
    return 0

"""Route table for the serving plane: paths -> runtime operations.

Follows the DIRAC-style split: the router owns the URL surface and maps
each request onto exactly one :class:`~repro.serve.core.GridRuntime`
operation, using :mod:`repro.serve.logic` for parsing and rendering.
All handlers run under the server's single-writer lock, so they may
freely mutate the grid.

The API surface (see docs/serving.md):

=========  =====================  ===========================================
method     path                   operation
=========  =====================  ===========================================
``GET``    ``/``                  endpoint index + capability descriptor
``POST``   ``/compose``           QoS request in -> admitted session/path out
``GET``    ``/sessions``          list active sessions
``GET``    ``/sessions/{id}``     inspect one session (active or resolved)
``DELETE`` ``/sessions/{id}``     release an active session's reservations
``GET``    ``/status``            grid size, churn generation, cache counters
``GET``    ``/metrics``           telemetry (JSON default; ``?format=``
                                  ``prometheus`` or ``Accept: text/plain``
                                  for text exposition)
``GET``    ``/slo``               objective states, burn rates, windowed series
``GET``    ``/traces``            recent/worst request traces
``GET``    ``/traces/{id}``       one request's correlated span tree
=========  =====================  ===========================================
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.serve.core import GridRuntime
from repro.serve.http import HttpError, HttpRequest, HttpResponse
from repro.serve.logic import ApiError, compose_view, parse_compose, session_view
from repro.telemetry.exposition import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE

__all__ = ["Router", "build_router", "negotiate_metrics_format"]


def negotiate_metrics_format(request: HttpRequest) -> str:
    """``"json"`` or ``"prometheus"`` for one ``GET /metrics`` request.

    An explicit ``?format=`` wins; otherwise an ``Accept`` header that
    asks for ``text/plain`` (the Prometheus scrape default) selects the
    text exposition, and everything else -- including no header and
    ``*/*`` -- stays JSON.
    """
    fmt = request.query.get("format")
    if fmt is not None:
        if fmt not in ("json", "prometheus"):
            raise ApiError(
                400, f"unknown metrics format {fmt!r} (json/prometheus)"
            )
        return fmt
    accept = request.headers.get("accept", "")
    if "text/plain" in accept or "openmetrics" in accept:
        return "prometheus"
    return "json"

#: A bound handler: path parameters in, response out.
RouteHandler = Callable[[HttpRequest, Dict[str, str]], Awaitable[HttpResponse]]


class Router:
    """Literal/parameter path matching over a fixed route table."""

    def __init__(self) -> None:
        #: ``(method, segments, label, handler)`` where a segment like
        #: ``{id}`` captures one path element.
        self._routes: List[Tuple[str, Tuple[str, ...], str, RouteHandler]] = []

    def add(self, method: str, pattern: str, handler: RouteHandler) -> None:
        segments = tuple(s for s in pattern.split("/") if s)
        self._routes.append((method.upper(), segments, pattern, handler))

    def _match(
        self, segments: Tuple[str, ...], parts: List[str]
    ) -> Optional[Dict[str, str]]:
        if len(segments) != len(parts):
            return None
        params: Dict[str, str] = {}
        for seg, part in zip(segments, parts):
            if seg.startswith("{") and seg.endswith("}"):
                params[seg[1:-1]] = part
            elif seg != part:
                return None
        return params

    async def dispatch(self, request: HttpRequest) -> Tuple[HttpResponse, str]:
        """Answer one request; returns ``(response, route label)``.

        The label is the *pattern* (``/sessions/{id}``, not the concrete
        path), so telemetry cardinality stays bounded.
        """
        parts = [p for p in request.path.split("/") if p]
        allowed: List[str] = []
        for method, segments, label, handler in self._routes:
            params = self._match(segments, parts)
            if params is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            try:
                return await handler(request, params), label
            except (ApiError, HttpError) as exc:
                return HttpResponse(exc.status, {"error": exc.message}), label
            except Exception as exc:  # noqa: BLE001 - the API must answer
                return (
                    HttpResponse(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    ),
                    label,
                )
        if allowed:
            return (
                HttpResponse(
                    405,
                    {"error": f"method {request.method} not allowed; "
                              f"use {', '.join(sorted(set(allowed)))}"},
                ),
                request.path,
            )
        return HttpResponse(404, {"error": f"no route {request.path}"}), request.path


def _parse_session_id(params: Dict[str, str]) -> int:
    raw = params.get("id", "")
    try:
        return int(raw)
    except ValueError:
        raise ApiError(400, f"session id must be an integer, got {raw!r}") from None


def build_router(runtime: GridRuntime) -> Router:
    """The route table bound to one resident grid."""
    router = Router()
    applications = frozenset(t.name for t in runtime.grid.applications)

    async def index(request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        runtime.tick()
        status = runtime.status()
        return HttpResponse(200, {
            "service": status["service"],
            "endpoints": [
                "POST /compose",
                "GET /sessions",
                "GET /sessions/{id}",
                "DELETE /sessions/{id}",
                "GET /status",
                "GET /metrics",
                "GET /slo",
                "GET /traces",
                "GET /traces/{trace_id}",
            ],
        })

    async def compose(request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        spec = parse_compose(request.json(), applications)
        if spec.peer_id is not None and not runtime.grid.directory.is_alive(
            spec.peer_id
        ):
            raise ApiError(400, f"peer {spec.peer_id} is not alive")
        result = runtime.compose(
            application=spec.application,
            qos_level=spec.qos_level,
            duration=spec.duration,
            peer_id=spec.peer_id,
            out_format=spec.out_format,
            trace_id=request.trace_id,
        )
        status = 201 if result.admitted else 409
        view = compose_view(result)
        view["trace_id"] = request.trace_id
        return HttpResponse(status, view)

    async def list_sessions(
        request: HttpRequest, params: Dict[str, str]
    ) -> HttpResponse:
        runtime.tick()
        now = runtime.grid.sim.now
        sessions = [
            session_view(s, runtime.session_meta(s.session_id), now)
            for s in runtime.active_sessions()
        ]
        return HttpResponse(200, {"active": len(sessions), "sessions": sessions})

    async def get_session(
        request: HttpRequest, params: Dict[str, str]
    ) -> HttpResponse:
        runtime.tick()
        session_id = _parse_session_id(params)
        kind, session, meta = runtime.find_session(session_id)
        if kind == "active" and session is not None:
            view = session_view(session, meta or {}, runtime.grid.sim.now)
            return HttpResponse(200, view)
        if kind == "resolved":
            payload = {"session_id": session_id}
            payload.update(meta or {})
            return HttpResponse(200, payload)
        raise ApiError(404, f"session {session_id} is unknown")

    async def delete_session(
        request: HttpRequest, params: Dict[str, str]
    ) -> HttpResponse:
        session_id = _parse_session_id(params)
        session = runtime.release(session_id, trace_id=request.trace_id)
        if session is None:
            # Not active: a repeat DELETE (idempotent teardown -- nothing
            # is ever released twice) or a never-admitted id.
            raise ApiError(404, f"session {session_id} is not active")
        return HttpResponse(200, {
            "session_id": session.session_id,
            "state": session.state.value,
            "reason": session.failure_reason,
            "released_at": runtime.grid.sim.now,
        })

    async def status(request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        runtime.tick()
        return HttpResponse(200, runtime.status())

    async def metrics(request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        fmt = negotiate_metrics_format(request)
        runtime.tick()
        if fmt == "prometheus":
            return HttpResponse(
                200,
                text=runtime.prometheus(),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        return HttpResponse(200, runtime.metrics())

    async def slo(request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        runtime.tick()
        view = runtime.slo_view()
        if view is None:
            raise ApiError(404, "observability plane is disabled on this server")
        return HttpResponse(200, view)

    async def traces(request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        runtime.tick()
        view = runtime.traces_view()
        if view is None:
            raise ApiError(404, "observability plane is disabled on this server")
        return HttpResponse(200, view)

    async def get_trace(request: HttpRequest, params: Dict[str, str]) -> HttpResponse:
        runtime.tick()
        trace_id = params.get("trace_id", "")
        if runtime.observability is None:
            raise ApiError(404, "observability plane is disabled on this server")
        view = runtime.trace(trace_id)
        if view is None:
            raise ApiError(404, f"trace {trace_id!r} is unknown (expired or never seen)")
        return HttpResponse(200, view)

    router.add("GET", "/", index)
    router.add("POST", "/compose", compose)
    router.add("GET", "/sessions", list_sessions)
    router.add("GET", "/sessions/{id}", get_session)
    router.add("DELETE", "/sessions/{id}", delete_session)
    router.add("GET", "/status", status)
    router.add("GET", "/metrics", metrics)
    router.add("GET", "/slo", slo)
    router.add("GET", "/traces", traces)
    router.add("GET", "/traces/{trace_id}", get_trace)
    return router

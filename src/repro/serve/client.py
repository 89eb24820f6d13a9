"""A stdlib HTTP client for the serving plane.

One method per endpoint, built on ``http.client`` so tests, the load
generator and the CLI all talk to the server over real TCP without any
new dependency.  Errors surface as :class:`ServeApiError` carrying the
HTTP status and the server's JSON error payload.
"""

from __future__ import annotations

import json
import socket
import time
from http.client import HTTPConnection
from typing import Any, Dict, Optional, Tuple

__all__ = ["ServeApiError", "ServeClient", "wait_ready"]


class ServeApiError(Exception):
    """A non-2xx API answer."""

    def __init__(self, status: int, message: str, payload: Any = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.payload = payload


def wait_ready(host: str, port: int, timeout: float = 30.0) -> None:
    """Block until ``host:port`` accepts TCP connections.

    Readiness is probed with bare connects -- the server treats a
    connect-then-close as a clean EOF and emits *no* telemetry, so
    polling here cannot perturb the deterministic event stream.
    """
    # Readiness polling is wall-clock by nature (we are waiting for a
    # real socket); nothing here feeds the seeded event stream.
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"server at {host}:{port} not accepting connections "
                    f"after {timeout}s"
                ) from None
            time.sleep(0.02)


class ServeClient:
    """Talks to one ``repro serve`` instance (keep-alive connection)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    # -- plumbing ----------------------------------------------------------
    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, Any]:
        """One round trip; returns ``(status, decoded JSON payload)``."""
        encoded = None
        headers = {}
        if body is not None:
            encoded = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=encoded, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, socket.timeout, OSError):
            # Stale keep-alive connection: reconnect once.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=encoded, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        payload = json.loads(raw) if raw else None
        return response.status, payload

    def _expect(
        self, method: str, path: str, body: Any = None, ok: Tuple[int, ...] = (200,)
    ) -> Any:
        status, payload = self.request(method, path, body)
        if status not in ok:
            message = (
                payload.get("error", "") if isinstance(payload, dict) else str(payload)
            )
            raise ServeApiError(status, message or f"unexpected status {status}", payload)
        return payload

    # -- endpoints -----------------------------------------------------------
    def index(self) -> Dict[str, Any]:
        return self._expect("GET", "/")

    def compose(
        self,
        application: str,
        qos_level: str = "average",
        duration: float = 10.0,
        peer_id: Optional[int] = None,
        out_format: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run one composition; admitted *and* denied outcomes both
        return the payload (check ``payload["admitted"]``)."""
        body: Dict[str, Any] = {
            "application": application,
            "qos_level": qos_level,
            "duration": duration,
        }
        if peer_id is not None:
            body["peer_id"] = peer_id
        if out_format is not None:
            body["out_format"] = out_format
        return self._expect("POST", "/compose", body, ok=(201, 409))

    def sessions(self) -> Dict[str, Any]:
        return self._expect("GET", "/sessions")

    def session(self, session_id: int) -> Dict[str, Any]:
        return self._expect("GET", f"/sessions/{session_id}")

    def release(self, session_id: int) -> Dict[str, Any]:
        """Tear one active session down (404s if it is not active)."""
        return self._expect("DELETE", f"/sessions/{session_id}")

    def status(self) -> Dict[str, Any]:
        return self._expect("GET", "/status")

    def metrics(self) -> Dict[str, Any]:
        return self._expect("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition (``/metrics?format=prometheus``)."""
        conn = self._connection()
        try:
            conn.request("GET", "/metrics?format=prometheus")
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, socket.timeout, OSError):
            self.close()
            conn = self._connection()
            conn.request("GET", "/metrics?format=prometheus")
            response = conn.getresponse()
            raw = response.read()
        if response.status != 200:
            raise ServeApiError(response.status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def slo(self) -> Dict[str, Any]:
        """Objective states, burn rates and the windowed series."""
        return self._expect("GET", "/slo")

    def traces(self) -> Dict[str, Any]:
        """Recent and worst request traces."""
        return self._expect("GET", "/traces")

    def trace(self, trace_id: str) -> Dict[str, Any]:
        """One request's correlated span tree (404s if unknown)."""
        return self._expect("GET", f"/traces/{trace_id}")

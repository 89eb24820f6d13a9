"""The observability plane over a live server: content negotiation,
trace correlation, SLO views, error surfaces, exposition stability, and
the ``repro top`` renderer.
"""

import json
from http.client import HTTPConnection

import pytest

from repro.grid import GridConfig
from repro.serve import ServeConfig
from repro.serve.client import ServeApiError, ServeClient, wait_ready
from repro.serve.top import render_top
from tests.serve.server_thread import start_server_thread


def _raw_get(server, path, headers=None):
    conn = HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read()
        return response, body
    finally:
        conn.close()


class TestContentNegotiation:
    def test_default_is_json(self, server, client):
        response, body = _raw_get(server, "/metrics")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("application/json")
        assert "metrics" in json.loads(body)

    def test_query_format_prometheus(self, server, client):
        client.compose("video-on-demand")
        response, body = _raw_get(server, "/metrics?format=prometheus")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert "version=0.0.4" in response.getheader("Content-Type")
        text = body.decode()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_window_rate{" in text
        assert "repro_slo_state{" in text

    def test_query_format_json_explicit(self, server):
        response, body = _raw_get(server, "/metrics?format=json")
        assert response.status == 200
        assert "metrics" in json.loads(body)

    def test_unknown_format_is_400(self, server):
        response, body = _raw_get(server, "/metrics?format=xml")
        assert response.status == 400
        assert "unknown metrics format" in json.loads(body)["error"]

    def test_accept_text_plain_selects_prometheus(self, server):
        response, body = _raw_get(server, "/metrics",
                                  headers={"Accept": "text/plain"})
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        assert body.decode().startswith("# TYPE ") or "repro_" in body.decode()

    def test_accept_anything_stays_json(self, server):
        response, body = _raw_get(server, "/metrics",
                                  headers={"Accept": "*/*"})
        assert response.status == 200
        assert "metrics" in json.loads(body)

    def test_query_format_beats_accept_header(self, server):
        response, body = _raw_get(server, "/metrics?format=json",
                                  headers={"Accept": "text/plain"})
        assert response.status == 200
        assert "metrics" in json.loads(body)


class TestTraceCorrelation:
    def test_compose_returns_trace_id_and_header(self, server, client):
        view = client.compose("video-on-demand")
        assert view["trace_id"].startswith("req-")
        response, _ = _raw_get(server, "/status")
        assert response.getheader("x-repro-trace", "").startswith("req-")

    def test_trace_tree_is_one_correlated_tree(self, client):
        view = client.compose("video-on-demand")
        trace = client.trace(view["trace_id"])
        assert trace["trace_id"] == view["trace_id"]
        assert trace["n_spans"] > 5
        # Exactly one root: the serve.request span, carrying the id.
        roots = [s for s in trace["spans"] if s["name"] == "serve.request"]
        assert len(roots) == 1
        assert roots[0]["trace_id"] == view["trace_id"]
        assert roots[0]["op"] == "compose"
        # The aggregation pipeline nests beneath it.
        names = {s["name"] for s in trace["spans"]}
        assert {"request", "qcs.compose", "selection"} <= names
        assert "serve.request" in trace["tree"]

    def test_client_supplied_trace_header_is_honored(self, server):
        conn = HTTPConnection(server.host, server.port, timeout=30)
        try:
            body = json.dumps({"application": "video-on-demand",
                               "duration": 5.0}).encode()
            conn.request("POST", "/compose", body=body,
                         headers={"Content-Type": "application/json",
                                  "x-repro-trace": "my-custom-trace"})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.getheader("x-repro-trace") == "my-custom-trace"
        assert payload["trace_id"] == "my-custom-trace"

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServeApiError) as err:
            client.trace("req-99999999")
        assert err.value.status == 404
        assert "unknown" in err.value.message

    def test_traces_view_lists_recent_and_worst(self, client):
        client.compose("video-on-demand")
        view = client.traces()
        assert view["recent"]
        assert view["worst"]
        entry = view["recent"][0]
        assert set(entry) >= {"trace_id", "op", "sim_start", "wall_us"}


class TestSloEndpoint:
    def test_slo_before_any_traffic_is_ok(self):
        # A fresh server: no window has closed, no denominator counts.
        handle = start_server_thread(ServeConfig(
            port=0, seed=9, grid=GridConfig(n_peers=120, telemetry=True),
        ))
        try:
            wait_ready(handle.host, handle.port)
            with ServeClient(handle.host, handle.port) as c:
                doc = c.slo()
            assert doc["state"] == "ok"
            assert {o["slo"] for o in doc["objectives"]} == {
                "slo.psi", "slo.setup_latency_p95",
                "slo.denial_rate", "slo.fault_rate",
            }
            for o in doc["objectives"]:
                assert o["state"] == "ok"
        finally:
            handle.stop()

    def test_slo_view_carries_windowed_series(self, client):
        client.compose("video-on-demand")
        doc = client.slo()
        assert "serve.window.requests" in doc["series"]
        latency = doc["series"]["serve.window.setup_latency_us"]
        assert latency["wall"] is True

    def test_status_carries_slo_state_and_rss(self, client):
        status = client.status()
        assert status["slo_state"] in ("ok", "warn", "breach")
        assert status["process"]["rss_kb"] is None or \
            status["process"]["rss_kb"] > 0

    def test_metrics_json_carries_windows(self, client):
        view = client.metrics()
        assert "windows" in view
        assert "serve.window.requests" in view["windows"]


def _scripted_server(seed=4):
    handle = start_server_thread(ServeConfig(
        port=0, seed=seed, grid=GridConfig(n_peers=120, telemetry=True),
    ))
    wait_ready(handle.host, handle.port)
    with ServeClient(handle.host, handle.port) as c:
        released = 0
        for i in range(12):
            view = c.compose("video-on-demand", duration=5.0)
            if view.get("admitted") and released < 3:
                c.release(view["session_id"])
                released += 1
        text = c.metrics_prometheus()
    handle.stop()
    return text


def _deterministic_lines(text):
    return [line for line in text.splitlines() if 'clock="wall"' not in line]


class TestExpositionStability:
    def test_same_seed_same_script_same_exposition(self):
        # Everything except the explicitly wall-labelled lines is a pure
        # function of (seed, request script) on a sim-time server.
        a = _scripted_server()
        b = _scripted_server()
        assert _deterministic_lines(a) == _deterministic_lines(b)
        # and wall lines exist (the serving plane measures real time)
        assert any('clock="wall"' in line for line in a.splitlines())


class TestObservabilityDisabled:
    def test_disabled_plane_404s_with_clear_error(self):
        handle = start_server_thread(ServeConfig(
            port=0, seed=2, observability=False,
            grid=GridConfig(n_peers=120),
        ))
        try:
            wait_ready(handle.host, handle.port)
            with ServeClient(handle.host, handle.port) as c:
                assert c.status()["slo_state"] is None
                for call in (c.slo, c.traces, lambda: c.trace("req-0")):
                    with pytest.raises(ServeApiError) as err:
                        call()
                    assert err.value.status == 404
                    assert "disabled" in err.value.message
        finally:
            handle.stop()

    def test_plane_requires_enabled_telemetry(self):
        from repro.serve.observability import ObservabilityPlane
        from repro.telemetry import Telemetry

        with pytest.raises(ValueError):
            ObservabilityPlane(Telemetry(lambda: 0.0, enabled=False), clock=lambda: 0.0)


class TestRenderTop:
    def _status(self):
        return {
            "scenario": "baseline", "algorithm": "qsa", "seed": 0,
            "mode": "sim", "sim_time": 3.5,
            "grid": {"n_peers": 1000},
            "sessions": {"active": 4}, "requests": {"http": 70},
            "process": {"rss_kb": 51200},
        }

    def test_disabled_plane_renders_notice(self):
        text = render_top(self._status(), None, None)
        assert "disabled" in text
        assert "scenario=baseline" in text

    def test_full_panel(self):
        slo = {
            "state": "warn", "transitions": 2, "evaluations": 9,
            "objectives": [
                {"slo": "slo.psi", "state": "warn", "value_long": 0.879,
                 "target": 0.85, "burn_long": 0.8, "burn_short": 0.67},
            ],
            "series": {
                "serve.window.requests": {
                    "count": 60, "rate": 16.9, "mean": 1.0,
                    "p50": 1.0, "p95": 1.0, "p99": 1.0, "wall": False},
                "serve.window.setup_latency_us": {
                    "count": 70, "rate": 19.7, "mean": 1500.0,
                    "p50": 1323.4, "p95": 2507.5, "p99": 4308.4,
                    "wall": True},
            },
        }
        traces = {"worst": [
            {"trace_id": "req-00000023", "op": "compose",
             "wall_us": 4900.0, "sim_start": 1.2},
        ]}
        text = render_top(self._status(), slo, traces)
        assert "! slo.psi" in text
        assert "(wall)" in text
        assert "req-00000023" in text
        assert "4.9ms" in text
        assert "rss=51200kB" in text

"""Retention follows export: a server with no ``--telemetry`` retains nothing.

The observability plane forces full telemetry on the resident grid, but
reads it through its own subscriptions (windows, SLO engine, trace
index); only a JSONL export reads the bus's retained stream.  So a
default server keeps zero bus events, while every view it serves --
``/traces``, ``/traces/{id}``, ``/slo``, ``/metrics`` as JSON and as
Prometheus text -- answers exactly as a server that records the stream
(wall-clock latency values aside, which differ run to run anyway), and
``event_counts`` are emission totals.
"""

from collections import Counter
from dataclasses import fields

import pytest

from repro.grid import GridConfig
from repro.serve import ServeConfig
from repro.serve.client import ServeClient, wait_ready
from repro.serve.core import GridRuntime, _resolve_grid_config
from tests.serve.server_thread import start_server_thread

APPS = ("video-on-demand", "audio-streaming", "content-retrieval")
LEVELS = ("low", "average", "high")


def _script(runtime):
    """A compose / release / status mix, as the server runs each request
    under its writer lock; returns the trace ids it minted."""
    trace_ids = []
    for i in range(30):
        trace_id = f"req-{i}"
        trace_ids.append(trace_id)
        result = runtime.compose(
            APPS[i % 3], LEVELS[i % 3], 2.0 + i % 5, None, None,
            trace_id=trace_id,
        )
        runtime.note_http("POST", "/compose", 201 if result.admitted else 409)
        if result.admitted and i % 3 == 0:
            trace_id = f"rel-{i}"
            trace_ids.append(trace_id)
            runtime.release(result.session.session_id, trace_id=trace_id)
            runtime.note_http("DELETE", "/sessions/{id}", 200)
        if i % 4 == 0:
            runtime.tick()
            runtime.status()
            runtime.note_http("GET", "/status", 200)
    return trace_ids


def _sim_only_windows(windows):
    return {k: v for k, v in windows.items() if not v["wall"]}


def _sim_only_slo(doc):
    wall = {k for k, v in doc["series"].items() if v["wall"]}
    return dict(
        doc,
        series=_sim_only_windows(doc["series"]),
        objectives=[o for o in doc["objectives"] if o["series"] not in wall],
    )


def _sim_only_prometheus(text):
    return [
        line.rsplit(" ", 1)[0] if 'clock="wall"' in line else line
        for line in text.splitlines()
    ]


@pytest.fixture(scope="module")
def pair():
    """The same script on a default runtime and on a recording one."""
    quiet = GridRuntime(ServeConfig(port=0, grid=GridConfig(n_peers=120)))
    recording = GridRuntime(ServeConfig(
        port=0, grid=GridConfig(n_peers=120, telemetry=True)
    ))
    ids = _script(quiet)
    assert _script(recording) == ids
    return quiet, recording, ids


class TestResolvedGridConfig:
    def test_default_serve_retains_nothing(self):
        grid = _resolve_grid_config(ServeConfig(grid=GridConfig(n_peers=50)))
        assert grid.telemetry is True
        assert grid.telemetry_capacity == 0

    def test_export_path_records_unbounded(self, tmp_path):
        grid = _resolve_grid_config(ServeConfig(
            grid=GridConfig(n_peers=50), telemetry_path=str(tmp_path / "x")
        ))
        assert grid.telemetry is True
        assert grid.telemetry_capacity is None

    def test_explicit_telemetry_grid_is_untouched(self):
        for capacity in (None, 500):
            asked = GridConfig(n_peers=50, telemetry=True,
                               telemetry_capacity=capacity)
            assert _resolve_grid_config(ServeConfig(grid=asked)) == asked

    def test_plane_off_leaves_telemetry_off(self):
        grid = _resolve_grid_config(ServeConfig(
            grid=GridConfig(n_peers=50), observability=False
        ))
        assert grid.telemetry is False

    def test_no_capacity_knob_on_serve_config(self):
        assert "telemetry_capacity" not in {f.name for f in fields(ServeConfig)}


class TestInProcess:
    def test_default_runtime_retains_nothing(self, pair):
        quiet, recording, _ = pair
        assert quiet.observability is not None
        assert len(quiet.bus) == 0
        assert quiet.metrics()["events_retained"] == 0
        assert len(recording.bus) == recording.bus.n_emitted > 0
        assert quiet.export_telemetry() == 0

    def test_same_emissions_either_way(self, pair):
        quiet, recording, _ = pair
        assert quiet.bus.n_emitted == recording.bus.n_emitted
        assert quiet.bus.counts() == recording.bus.counts()
        # A recording, unbounded bus: totals are its retained stream.
        assert recording.bus.counts() == Counter(e.name for e in recording.bus)

    def test_serve_request_count_is_requests_served(self, pair):
        quiet, _, _ = pair
        counts = quiet.metrics()["event_counts"]
        assert counts["serve.request"] == quiet.n_http_requests
        assert counts["request.setup"] == quiet.n_compose

    def test_traces_answer_as_when_recording(self, pair):
        quiet, recording, ids = pair
        for trace_id in ids:
            tree = quiet.trace(trace_id)
            assert tree is not None and tree["n_spans"] > 0
            assert tree == recording.trace(trace_id)
        assert quiet.trace("req-missing") is None
        view = quiet.traces_view(limit=5)
        other = recording.traces_view(limit=5)
        strip = lambda ts: [(t["trace_id"], t["op"], t["sim_start"]) for t in ts]  # noqa: E731
        assert strip(view["recent"]) == strip(other["recent"])
        assert len(view["worst"]) == len(other["worst"]) == 5

    def test_metrics_and_slo_answer_as_when_recording(self, pair):
        quiet, recording, _ = pair
        a, b = quiet.metrics(), recording.metrics()
        assert a.keys() == b.keys()
        for key in ("enabled", "events_emitted", "event_counts", "metrics"):
            assert a[key] == b[key]
        assert _sim_only_windows(a["windows"]) == _sim_only_windows(b["windows"])
        assert _sim_only_slo(quiet.slo_view()) == _sim_only_slo(recording.slo_view())
        assert _sim_only_prometheus(quiet.prometheus()) == _sim_only_prometheus(
            recording.prometheus()
        )


class TestLiveServer:
    def test_scripted_mix_over_http(self):
        handle = start_server_thread(ServeConfig(
            port=0, seed=3, grid=GridConfig(n_peers=120)
        ))
        try:
            wait_ready(handle.host, handle.port)
            with ServeClient(handle.host, handle.port) as client:
                trace_ids = []
                for i in range(12):
                    view = client.compose(
                        APPS[i % 3], qos_level=LEVELS[i % 3], duration=2.0 + i
                    )
                    trace_ids.append(view["trace_id"])
                    if view["admitted"] and i % 2 == 0:
                        client.release(view["session_id"])
                    if i % 3 == 0:
                        client.status()
                traces = client.traces()
                assert traces["recent"] and traces["worst"]
                tree = client.trace(trace_ids[-1])
                assert tree["trace_id"] == trace_ids[-1] and tree["n_spans"] > 0
                slo = client.slo()
                assert {o["slo"] for o in slo["objectives"]} >= {"slo.psi"}
                text = client.metrics_prometheus()
                assert "# TYPE repro_serve_requests_total counter" in text
                metrics = client.metrics()
            runtime = handle.runtime
            assert metrics["events_retained"] == 0
            assert len(runtime.bus) == 0
            # The /metrics request is accounted after its view is built.
            served = runtime.n_http_requests - 1
            assert metrics["event_counts"]["serve.request"] == served
            assert metrics["events_emitted"] == sum(metrics["event_counts"].values())
        finally:
            n_exported = handle.stop()
        assert n_exported == 0

    def test_export_path_still_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        handle = start_server_thread(ServeConfig(
            port=0, seed=3, grid=GridConfig(n_peers=120),
            telemetry_path=str(path),
        ))
        try:
            wait_ready(handle.host, handle.port)
            with ServeClient(handle.host, handle.port) as client:
                client.compose(APPS[0], qos_level="average", duration=3.0)
                metrics = client.metrics()
            assert metrics["events_retained"] == metrics["events_emitted"] > 0
        finally:
            n_lines = handle.stop()
        assert n_lines == len(path.read_text().splitlines()) > 0

"""Sim-time serving is deterministic: trace in, identical telemetry out.

The serving plane's core promise (ROADMAP: the grid stays a simulation
you can replay) is that in ``sim`` mode the telemetry stream is a pure
function of (seed, request trace).  This test boots two independent
servers with the same seed, drives both with the same scripted HTTP
trace, and requires the exported JSONL streams to be *byte-identical*.
"""

from repro.grid import GridConfig
from repro.serve import ServeConfig
from repro.serve.client import ServeClient, wait_ready
from tests.serve.server_thread import start_server_thread

APPS = ("video-on-demand", "audio-streaming", "content-retrieval")
LEVELS = ("low", "average", "high")


def run_scripted_trace(telemetry_path):
    """One server lifetime: scripted compose/inspect/release sequence."""
    handle = start_server_thread(ServeConfig(
        port=0,
        seed=7,
        grid=GridConfig(n_peers=150, telemetry=True),
        telemetry_path=str(telemetry_path),
    ))
    try:
        wait_ready(handle.host, handle.port)
        with ServeClient(handle.host, handle.port) as client:
            admitted = []
            for i in range(12):
                payload = client.compose(
                    APPS[i % len(APPS)],
                    qos_level=LEVELS[i % len(LEVELS)],
                    duration=2.0 + i,
                )
                if payload["admitted"] and i % 2 == 0:
                    admitted.append(payload["session_id"])
            client.sessions()
            client.status()
            for sid in admitted:
                client.release(sid)
                client.session(sid)
            client.metrics()
        summary = {
            "http": handle.runtime.n_http_requests,
            "admitted": handle.runtime.n_admitted,
            "released": handle.runtime.n_released,
            "sim_time": handle.runtime.grid.sim.now,
        }
    finally:
        n_events = handle.stop()
    return n_events, summary


class TestSimTimeDeterminism:
    def test_same_trace_same_seed_byte_identical_telemetry(self, tmp_path):
        a_path = tmp_path / "run_a.jsonl"
        b_path = tmp_path / "run_b.jsonl"
        n_a, summary_a = run_scripted_trace(a_path)
        n_b, summary_b = run_scripted_trace(b_path)

        assert n_a == n_b > 0
        assert summary_a == summary_b
        assert summary_a["admitted"] > 0, "trace must exercise admissions"
        assert summary_a["released"] > 0, "trace must exercise releases"

        a = a_path.read_bytes()
        b = b_path.read_bytes()
        assert len(a) > 0
        assert a == b, "seeded sim-time serving must replay byte-identically"

    def test_stream_contains_serving_plane_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_scripted_trace(path)
        text = path.read_text()
        assert '"event": "serve.request"' in text
        assert '"event": "session.released"' in text

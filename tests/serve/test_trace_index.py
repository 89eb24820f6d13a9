"""The trace index keeps whole recent traces: exact against a full scan.

``ObservabilityPlane`` groups ``span`` events into one record per
``serve.request`` as they close and keeps the ``recent_traces`` (256)
newest records.  For each of the 256 newest trace ids, ``trace(id)``
must equal :func:`reference_trace` run over a recording runtime's whole
span stream -- on that runtime and on a default one that retains no bus
event -- across releases, a reused trace id, sessions that close during
a later request's clock advance, and a faulted run.  Older ids answer
``None`` (404 over HTTP), and the index holds no span outside its
records.
"""

import json
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.grid import GridConfig
from repro.serve import ServeConfig
from repro.serve.client import ServeApiError, ServeClient, wait_ready
from repro.serve.core import GridRuntime
from tests.serve.reference_trace_index import reference_trace
from tests.serve.server_thread import start_server_thread

APPS = ("video-on-demand", "audio-streaming", "content-retrieval")
LEVELS = ("low", "average", "high")
CHAOS_PLAN = Path(__file__).resolve().parents[2] / "examples/plans/ci-chaos.json"
#: observability.RECENT_TRACES, the index's bound.
RETAINED = 256
#: Trace ids minted twice, as a client's ``x-repro-trace`` header would:
#: the first pair's older root is evicted before its newer one, the
#: second pair's roots are both retained.
REUSED = {20: "dup-evicted", 330: "dup-evicted", 300: "dup-kept", 320: "dup-kept"}


def _script(runtime):
    """Composes, releases and status reads, as the server runs each under
    its writer lock; returns the trace id of every root, oldest first."""
    roots = []
    for i in range(340):
        trace_id = REUSED.get(i, f"req-{i}")
        roots.append(trace_id)
        # Durations of 0.3-3.1 sim min at 0.05 min per request: most
        # sessions complete during a later request's clock advance.
        result = runtime.compose(
            APPS[i % 3], LEVELS[i % 3], 0.3 + (i % 8) * 0.4, None, None,
            trace_id=trace_id,
        )
        runtime.note_http("POST", "/compose", 201 if result.admitted else 409)
        if result.admitted and i % 4 == 1:
            trace_id = f"rel-{i}"
            roots.append(trace_id)
            runtime.release(result.session.session_id, trace_id=trace_id)
            runtime.note_http("DELETE", "/sessions/{id}", 200)
        if i % 5 == 0:
            runtime.tick()
            runtime.status()
            runtime.note_http("GET", "/status", 200)
    return roots


def _runtimes(**serve):
    quiet = GridRuntime(ServeConfig(port=0, grid=GridConfig(n_peers=120), **serve))
    recording = GridRuntime(ServeConfig(
        port=0, grid=GridConfig(n_peers=120, telemetry=True), **serve
    ))
    roots = _script(quiet)
    assert _script(recording) == roots
    return quiet, recording, roots


@pytest.fixture(scope="module", params=["plain", "ci-chaos"])
def run(request):
    serve = {} if request.param == "plain" else {"faults_path": str(CHAOS_PLAN)}
    quiet, recording, roots = _runtimes(**serve)
    spans = [e for e in recording.bus if e.name == "span"]
    return request.param, quiet, recording, roots, spans


def _newest(roots, n):
    """The trace ids of the ``n`` newest roots."""
    return set(roots[-n:])


class TestAgainstTheScan:
    def test_newest_ids_equal_the_oracle(self, run):
        _, quiet, recording, roots, spans = run
        ids = _newest(roots, RETAINED)
        for trace_id in ids:
            expected = reference_trace(spans, trace_id)
            assert expected is not None and expected["n_spans"] > 0
            assert recording.trace(trace_id) == expected, trace_id
            assert quiet.trace(trace_id) == expected, trace_id

    def test_older_ids_are_gone(self, run):
        _, quiet, recording, roots, spans = run
        expired = roots[-RETAINED - 1]
        assert expired not in _newest(roots, RETAINED)
        assert reference_trace(spans, expired) is not None
        assert quiet.trace(expired) is None
        assert recording.trace(expired) is None
        assert quiet.trace("req-missing") is None

    def test_script_covers_the_hard_cases(self, run):
        name, quiet, _, roots, spans = run
        assert len(roots) > RETAINED + 1
        assert any(r.startswith("rel-") for r in roots[-RETAINED:])
        # Newest root wins for a reused id, also after the older root
        # left the ring.
        for reused in ("dup-kept", "dup-evicted"):
            tree = quiet.trace(reused)
            (root,) = [s for s in tree["spans"] if s["name"] == "serve.request"]
            newest = [e for e in spans if e.fields["name"] == "serve.request"
                      and e.fields["trace_id"] == reused][-1]
            assert root["id"] == newest.fields["id"]
        # Session spans that closed during a later request joined the
        # trace that opened them.
        late = 0
        for trace_id in _newest(roots, RETAINED):
            tree = quiet.trace(trace_id)
            (root,) = [s for s in tree["spans"] if s["name"] == "serve.request"]
            late += sum(
                s["name"] == "session" and s["end"] > root["end"]
                for s in tree["spans"]
            )
        assert late >= 20
        if name == "ci-chaos":
            assert quiet.bus.counts()["fault.injected"] > 0

    def test_recent_and_worst_read_the_ring(self, run):
        _, quiet, recording, roots, _ = run
        recent = quiet.observability.recent_traces()
        assert [t["trace_id"] for t in recent] == roots[::-1][:RETAINED]
        assert [t["trace_id"] for t in recording.observability.recent_traces()] == [
            t["trace_id"] for t in recent
        ]
        worst = quiet.observability.worst_traces(RETAINED)
        assert sorted(t["wall_us"] for t in worst) == sorted(
            t["wall_us"] for t in recent
        )


class TestRetention:
    def test_exact_counts_after_1000_composes(self):
        handle = start_server_thread(ServeConfig(
            port=0, seed=1, grid=GridConfig(n_peers=120)
        ))
        try:
            wait_ready(handle.host, handle.port)
            with ServeClient(handle.host, handle.port) as client:
                ids = [
                    client.compose(
                        APPS[i % 3], qos_level=LEVELS[i % 3],
                        duration=0.5 + i % 7,
                    )["trace_id"]
                    for i in range(1000)
                ]
                plane = handle.runtime.observability
                # Read between requests: the server thread is idle.
                retained = [t["trace_id"] for t in plane.recent_traces()]
                assert retained == ids[::-1][:RETAINED]
                assert plane.n_traces() == RETAINED
                assert plane.n_spans() == sum(
                    plane.trace(trace_id)["n_spans"] for trace_id in retained
                )
                assert client.metrics()["traces_retained"] == RETAINED
                listed = client.traces()
                for entry in listed["recent"] + listed["worst"]:
                    tree = client.trace(entry["trace_id"])
                    assert tree["trace_id"] == entry["trace_id"]
                    assert tree["n_spans"] > 0
                client.trace(ids[-RETAINED])
                with pytest.raises(ServeApiError) as err:
                    client.trace(ids[-RETAINED - 1])
                assert err.value.status == 404
        finally:
            handle.stop()

    def test_reused_header_answers_the_newest_request(self):
        handle = start_server_thread(ServeConfig(
            port=0, seed=2, grid=GridConfig(n_peers=120)
        ))
        try:
            wait_ready(handle.host, handle.port)
            sim_starts = []
            for duration in (2.0, 3.0):
                conn = HTTPConnection(handle.host, handle.port, timeout=30)
                try:
                    body = json.dumps({"application": APPS[0],
                                       "duration": duration}).encode()
                    conn.request("POST", "/compose", body=body,
                                 headers={"Content-Type": "application/json",
                                          "x-repro-trace": "client-trace"})
                    response = conn.getresponse()
                    response.read()
                    assert response.getheader("x-repro-trace") == "client-trace"
                finally:
                    conn.close()
                sim_starts.append(
                    handle.runtime.observability.recent_traces()[0]["sim_start"]
                )
            with ServeClient(handle.host, handle.port) as client:
                tree = client.trace("client-trace")
            (root,) = [s for s in tree["spans"] if s["name"] == "serve.request"]
            assert root["start"] == sim_starts[1] > sim_starts[0]
        finally:
            handle.stop()

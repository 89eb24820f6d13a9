"""The ``serve-mixed`` workload: a real ``repro serve`` process over TCP.

The plain pass spawns ``python -m repro serve --scenario baseline --port 0
--seed N`` and drives it closed-loop from two keep-alive connections
(= ``nproc`` on the sizing host).  The traced pass answers "where does a
compose round trip go" from outside: the same operation stream once over
*one* connection (RTT = service time, no queueing), then replayed on an
in-process ``GridRuntime`` -- untraced for the runtime's own compose time,
traced for its layer split -- and finally the public parse/view/encode
functions timed over the recorded payloads.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hostspeed import SlicedClock, factor_now
from inproc import (
    BENCH_DIR, check_results, counted_layers, p50_us, read_counters,
    traced_layers,
)
from layers import SpanRecorder, timed_build
from workloads import ServeOp, serve_ops, serve_scenario

SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
#: Composes per connection between two host-speed marks (~0.4 s).
SLICE_OPS = 100
#: Statuses the endpoint contract allows per operation.
CONTRACT = {"compose": (201, 409), "release": (200, 404), "status": (200,)}


class ServerProcess:
    """``repro serve`` as a subprocess; always reaped on exit."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.scenario = serve_scenario(smoke)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.exit_code: Optional[int] = None

    def __enter__(self) -> "ServerProcess":
        from repro.serve.client import ServeClient

        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        env.pop("REPRO_PAPER_SCALE", None)
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--scenario", self.scenario, "--port", "0", "--seed", str(self.seed)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
                    break
            else:
                raise RuntimeError("repro serve exited before listening")
            with ServeClient("127.0.0.1", self.port) as client:
                client.status()
            self.setup_s = perf_counter() - t0
        except BaseException:
            self._reap(graceful=False)
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._reap(graceful=exc_info[0] is None)

    def _reap(self, graceful: bool) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is not None:
            self.exit_code = proc.returncode
            return
        try:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        if graceful:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                graceful = False
        if not graceful:
            proc.kill()
            proc.communicate()
        self.exit_code = proc.returncode


class Connection:
    """One closed-loop keep-alive connection and what it observed."""

    def __init__(self, port: int, ops: Sequence[ServeOp]) -> None:
        from repro.serve.client import ServeClient

        self.client = ServeClient("127.0.0.1", port)
        self.ops = ops
        #: ``(clock slice, seconds)`` per answered request, by kind.
        self.latencies: Dict[str, List[Tuple[int, float]]] = {
            "compose": [], "release": [], "status": []
        }
        #: Per compose: (admitted, released), in send order.
        self.verdicts: List[Tuple[bool, bool]] = []
        self.session_ids: List[int] = []
        self.attempted = 0
        self.problems: List[str] = []

    def _call(self, slice_index: int, kind: str, method: str, path: str,
              body: Any = None) -> Tuple[int, Any]:
        self.attempted += 1
        t0 = perf_counter()
        try:
            status, payload = self.client.request(method, path, body)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            self.problems.append(f"{method} {path}: {exc!r}")
            return 0, None
        self.latencies[kind].append((slice_index, perf_counter() - t0))
        if status not in CONTRACT[kind]:
            self.problems.append(f"{method} {path}: status {status}")
            return 0, None
        return status, payload

    def run(self, ops: Sequence[ServeOp], slice_index: int) -> None:
        for op in ops:
            status, payload = self._call(
                slice_index, "compose", "POST", "/compose", op.body
            )
            released = False
            if status == 201:
                sid = payload["session_id"]
                self.session_ids.append(sid)
                if len(payload["peers"]) != len(payload["path"]["instances"]):
                    self.problems.append(f"session {sid}: peers/instances differ")
                if op.release:
                    code, _ = self._call(
                        slice_index, "release", "DELETE", f"/sessions/{sid}"
                    )
                    released = code == 200
            self.verdicts.append((status == 201, released))
            if op.status_read:
                self._call(slice_index, "status", "GET", "/status")


def drive(seed: int, smoke: bool, ops: Sequence[ServeOp],
          n_connections: int) -> Tuple[Dict[str, Any], List[Connection]]:
    """One server lifetime: spawn, drive closed-loop, check, stop.

    The connections run ``SLICE_OPS`` composes each, in parallel, between
    two host-speed marks; at a mark both are idle.
    """
    from repro.serve.client import ServeClient

    with ServerProcess(seed, smoke) as server:
        connections = [
            Connection(server.port, ops[i::n_connections])
            for i in range(n_connections)
        ]
        setup_s = server.setup_s * factor_now()
        gc.collect()
        clock = SlicedClock()
        for start in range(0, len(connections[0].ops), SLICE_OPS):
            threads = [
                threading.Thread(
                    target=c.run, args=(c.ops[start:start + SLICE_OPS], clock.index)
                )
                for c in connections
            ]

            def run_slice() -> None:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

            clock.run(run_slice)
        for c in connections:
            c.client.close()
        with ServeClient("127.0.0.1", server.port) as client:
            final = client.status()

    problems = [p for c in connections for p in c.problems]
    failed = len(problems)
    session_ids = [sid for c in connections for sid in c.session_ids]
    if len(set(session_ids)) != len(session_ids):
        problems.append("duplicate session ids")
    released = sum(r for c in connections for _a, r in c.verdicts)
    if final["requests"]["released"] != released:
        problems.append(
            f"server released {final['requests']['released']}, "
            f"{released} DELETEs acknowledged"
        )
    if server.exit_code != 0:
        problems.append(f"server exit code {server.exit_code} on SIGTERM")
    latencies = {
        kind: clock.normalise([s for c in connections for s in c.latencies[kind]])
        for kind in CONTRACT
    }
    composes = [a for c in connections for a, _r in c.verdicts]
    doc = {
        "setup_s": setup_s,
        "run_s": clock.normalised_s,
        "raw_run_s": clock.raw_s,
        "attempted": sum(c.attempted for c in connections),
        "failed": failed,
        "verdicts": len(latencies["compose"]),
        "latencies_us": [s * 1e6 for s in latencies["compose"]],
        "psi": sum(composes) / len(composes),
        "peak_rss_mb": server.peak_rss_mb,
        "layers": {
            "serve.release_p50_us": p50_us(latencies["release"]),
            "serve.status_p50_us": p50_us(latencies["status"]),
            "serve.http.requests": final["requests"]["http"],
            "serve.released": released,
            "serve.status_reads": len(latencies["status"]),
        },
        "problems": problems,
    }
    return doc, connections


def replay(seed: int, smoke: bool, ops: Sequence[ServeOp], traced: bool,
           trace_path: Optional[str]) -> Dict[str, Any]:
    """The operation stream on an in-process ``GridRuntime``.

    Mirrors what the server does per request under its writer lock
    (clock tick, operation, ``note_http``), including the one readiness
    ``GET /status`` the driver sends first, so a single-connection HTTP
    pass and this replay see the same request trace.
    """
    from repro.serve.core import GridRuntime, ServeConfig, tune_gc_for_serving

    tune_gc_for_serving()
    recorder = SpanRecorder() if traced else None
    with timed_build() if traced else nullcontext({}) as build:
        runtime = GridRuntime(
            ServeConfig(scenario=serve_scenario(smoke), seed=seed)
        )
    if recorder is not None:
        recorder.install(runtime.grid, runtime.aggregator)

    def status_read() -> None:
        runtime.tick()
        runtime.status()
        runtime.note_http("GET", "/status", 200)

    status_read()
    before = read_counters(runtime.grid)
    results: List[Any] = []
    latencies: List[Tuple[int, float]] = []
    verdicts: List[Tuple[bool, bool]] = []

    def run_slice(chunk: Sequence[ServeOp]) -> None:
        for op in chunk:
            t0 = perf_counter()
            result = runtime.compose(peer_id=None, out_format=None, **op.body)
            latencies.append((clock.index, perf_counter() - t0))
            runtime.note_http("POST", "/compose", 201 if result.admitted else 409)
            results.append(result)
            released = False
            if result.admitted and op.release:
                released = runtime.release(result.session.session_id) is not None
                runtime.note_http(
                    "DELETE", "/sessions/{id}", 200 if released else 404
                )
            verdicts.append((result.admitted, released))
            if op.status_read:
                status_read()

    gc.collect()
    clock = SlicedClock()
    for start in range(0, len(ops), SLICE_OPS):
        clock.run(lambda: run_slice(ops[start:start + SLICE_OPS]))

    layers = counted_layers(runtime.grid, before, results)
    if recorder is not None:
        layers.update(traced_layers(recorder, build, clock.raw_s))
        if trace_path:
            recorder.write_jsonl(trace_path)
    return {
        "run_s": clock.normalised_s, "latencies": clock.normalise(latencies),
        "verdicts": verdicts, "results": results, "layers": layers,
        "problems": check_results(results),
    }


def per_call_us(fn: Any, inputs: Sequence[Any]) -> Tuple[float, List[Any]]:
    """p50 microseconds of ``fn(x)`` over the recorded inputs, and outputs."""
    durations, outputs = [], []
    for x in inputs:
        t0 = perf_counter()
        outputs.append(fn(x))
        durations.append(perf_counter() - t0)
    return p50_us(durations), outputs


def run_serve_mixed(seed: int, smoke: bool, traced: bool,
                    trace_path: Optional[str]) -> Dict[str, Any]:
    ops = serve_ops(seed, smoke)
    if not traced:
        return drive(seed, smoke, ops, n_connections=2)[0]

    from repro.serve.http import HttpResponse
    from repro.serve.logic import compose_view, parse_compose
    from repro.services.applications import default_applications

    doc, (connection,) = drive(seed, smoke, ops, n_connections=1)
    plain = replay(seed, smoke, ops, traced=False, trace_path=None)
    spans = replay(seed, smoke, ops, traced=True, trace_path=trace_path)
    doc["problems"] += plain["problems"] + spans["problems"]
    for label, other in (("untraced", plain), ("traced", spans)):
        if other["verdicts"] != connection.verdicts:
            doc["problems"].append(
                f"{label} in-process replay verdicts differ from the "
                "single-connection HTTP pass"
            )

    apps = frozenset(a.name for a in default_applications())
    parse_us, _ = per_call_us(
        lambda body: parse_compose(body, apps), [op.body for op in ops]
    )
    view_us, views = per_call_us(compose_view, plain["results"])
    encode_us, _ = per_call_us(
        lambda pair: HttpResponse(201 if pair[0].admitted else 409, pair[1]).encode(),
        list(zip(plain["results"], views)),
    )
    rtt1 = statistics.median(doc["latencies_us"])
    runtime_us = p50_us(plain["latencies"])
    doc["layers"].update(spans["layers"])
    doc["layers"].update({
        "serve.rtt1_p50_us": rtt1,
        "serve.runtime.compose_p50_us": runtime_us,
        "serve.transport_p50_us": rtt1 - runtime_us,
        "serve.logic.parse_compose_us": parse_us,
        "serve.logic.compose_view_us": view_us,
        "serve.http.encode_us": encode_us,
    })
    # The orchestrator reads tracing overhead off the two replays.
    doc["replay_run_s"] = {"untraced": plain["run_s"], "traced": spans["run_s"]}
    return doc

"""What ``repro serve`` spends around the grid, measured in-process.

Two harnesses over the ``serve-mixed`` operation stream
(``bench/workloads.py::serve_ops``), both reporting CPU seconds so host
scheduling noise stays out of the figure:

``replay``
    The stream on an in-process ``GridRuntime``, exactly as the server
    handles it under its writer lock (clock tick, operation,
    ``note_http``), three ways: telemetry off; telemetry on with the
    observability plane off; the plane on (what ``repro serve`` runs).
    The differences are the cost of the telemetry handle and of the
    plane.  Each runtime replays the stream once untimed first, so the
    timed pass sees a warm server: the plane's 256-request trace ring
    and its windows are already full, as on a server that has been up
    a while.

``http``
    An ``HttpServer`` with a no-op handler driven over one keep-alive
    connection with the same request sequence; the figure is the server
    thread's CPU over the load phase -- the HTTP layer's own cost per
    request, with no grid behind it.

Run from the repository root::

    PYTHONPATH=src python benchmarks/serve_overhead.py replay --runs 3
    PYTHONPATH=src python benchmarks/serve_overhead.py http --runs 3
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import sys
import threading
import time
from dataclasses import replace
from typing import Any, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import ServeOp, serve_ops, serve_scenario  # noqa: E402

#: Replay modes, in reporting order.
MODES = ("telemetry-off", "telemetry-on", "plane-on")


def _runtime(mode: str, seed: int) -> Any:
    from repro.experiments.config import SCENARIOS
    from repro.serve.core import GridRuntime, ServeConfig

    scenario = serve_scenario(False)
    if mode == "telemetry-off":
        config = ServeConfig(scenario=scenario, seed=seed, observability=False)
    elif mode == "telemetry-on":
        # What the plane would force on, without the plane itself.
        grid = replace(
            SCENARIOS[scenario](seed).grid,
            seed=seed,
            telemetry=True,
            telemetry_capacity=0,
        )
        config = ServeConfig(
            scenario=scenario, seed=seed, grid=grid, observability=False
        )
    else:
        config = ServeConfig(scenario=scenario, seed=seed)
    return GridRuntime(config)


def replay_cpu_s(mode: str, seed: int, ops: Sequence[ServeOp]) -> float:
    """CPU seconds one in-process replay of ``ops`` takes in ``mode``."""
    from repro.serve.core import tune_gc_for_serving

    tune_gc_for_serving()
    runtime = _runtime(mode, seed)

    def status_read() -> None:
        runtime.tick()
        runtime.status()
        runtime.note_http("GET", "/status", 200)

    def replay() -> None:
        status_read()
        for op in ops:
            result = runtime.compose(peer_id=None, out_format=None, **op.body)
            runtime.note_http("POST", "/compose", 201 if result.admitted else 409)
            if result.admitted and op.release:
                released = runtime.release(result.session.session_id) is not None
                runtime.note_http(
                    "DELETE", "/sessions/{id}", 200 if released else 404
                )
            if op.status_read:
                status_read()

    replay()  # warm-up, untimed: fills the trace ring and the windows
    gc.collect()
    t0 = time.process_time()
    replay()
    return time.process_time() - t0


def http_cpu_s(ops: Sequence[ServeOp]) -> float:
    """Server-thread CPU seconds for ``ops`` against a no-op handler."""
    from repro.serve.client import ServeClient
    from repro.serve.http import HttpRequest, HttpResponse, HttpServer

    async def handler(request: HttpRequest) -> HttpResponse:
        if request.method == "POST":
            request.json()
            return HttpResponse(201, {"session_id": 1})
        return HttpResponse(200, {"ok": True})

    loop = asyncio.new_event_loop()
    server = HttpServer(handler, "127.0.0.1", 0)
    loop.run_until_complete(server.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def thread_cpu() -> float:
        future = asyncio.run_coroutine_threadsafe(_thread_time(), loop)
        return future.result()

    try:
        with ServeClient(*server.address) as client:
            client.request("GET", "/status")
            gc.collect()
            before = thread_cpu()
            for i, op in enumerate(ops):
                client.request("POST", "/compose", op.body)
                if op.release:
                    client.request("DELETE", f"/sessions/{i}")
                if op.status_read:
                    client.request("GET", "/status")
            spent = thread_cpu() - before
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()
    return spent


async def _thread_time() -> float:
    return time.thread_time()


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("harness", choices=("replay", "http"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    ops = serve_ops(args.seed)
    if args.harness == "http":
        runs = [http_cpu_s(ops) for _ in range(args.runs)]
        print("http no-op handler, server CPU s: "
              + " ".join(f"{s:.3f}" for s in runs))
        return 0
    for mode in MODES:
        runs = [replay_cpu_s(mode, args.seed, ops) for _ in range(args.runs)]
        print(f"replay {mode:<14} CPU s: " + " ".join(f"{s:.3f}" for s in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""CLI entry points for the serving plane: ``repro serve`` / ``repro loadgen``.

Kept out of :mod:`repro.cli` so the top-level module stays a thin
dispatcher; the main parser calls :func:`add_serve_arguments` /
:func:`add_loadgen_arguments` to register the flags and dispatches to
:func:`cmd_serve` / :func:`cmd_loadgen`.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.grid import ALGORITHMS
from repro.serve.core import (
    GridRuntime,
    ServeConfig,
    ServeServer,
    tune_gc_for_serving,
)

__all__ = [
    "add_loadgen_arguments",
    "add_serve_arguments",
    "add_top_arguments",
    "cmd_loadgen",
    "cmd_serve",
    "cmd_top",
]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="baseline",
                        help="named scenario shaping the resident grid "
                             "(`repro info` lists them; default: baseline)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8177,
                        help="TCP port (0 = ephemeral; default 8177)")
    parser.add_argument("--algorithm", choices=ALGORITHMS,
                        default="qsa")
    parser.add_argument("--wall-clock", action="store_true",
                        help="couple sim time to the wall clock instead of "
                             "the deterministic per-request sim tick")
    parser.add_argument("--tick", type=float, default=0.05, metavar="MIN",
                        help="sim minutes advanced per request in sim-time "
                             "mode (default 0.05)")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="record full telemetry; exported as JSONL at "
                             "shutdown")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="inject faults from a JSON fault plan")


def add_loadgen_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8177)
    parser.add_argument("-n", "--requests", type=int, default=200,
                        dest="n_requests",
                        help="compose requests to send (default 200)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="workers / max in-flight (default 4)")
    parser.add_argument("--mode", choices=("closed", "open"),
                        default="closed",
                        help="closed loop (sustained capacity) or open "
                             "loop (fixed offered load)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="open-loop offered load, req/s (default 50)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--release-ratio", type=float, default=0.25,
                        help="fraction of admitted sessions torn down "
                             "immediately (default 0.25)")
    parser.add_argument("--soak", action="store_true",
                        help="duration-based soak: sustain the open-loop "
                             "load, sample /status + /slo, and report "
                             "RSS/latency drift over the run")
    parser.add_argument("--duration", type=float, default=30.0,
                        metavar="SEC",
                        help="soak duration in wall seconds (default 30)")
    parser.add_argument("--sample-interval", type=float, default=1.0,
                        metavar="SEC",
                        help="soak sampling cadence (default 1)")
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help="also write the full report as JSON (soak "
                             "artifact for CI)")


def add_top_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8177)
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh cadence in seconds (default 2)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="render this many frames then exit "
                             "(default: until Ctrl-C)")


def _build_serve_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        scenario=args.scenario,
        seed=args.seed,
        host=args.host,
        port=args.port,
        algorithm=args.algorithm,
        mode="wall" if args.wall_clock else "sim",
        tick_minutes=args.tick,
        telemetry_path=args.telemetry,
        faults_path=args.faults,
    )


async def _serve_until_signal(config: ServeConfig) -> GridRuntime:
    tune_gc_for_serving()
    runtime = GridRuntime(config)
    server = ServeServer(runtime, config.host, config.port)
    await server.start()
    host, port = server.address
    grid = runtime.grid
    print(f"repro serve: scenario={config.scenario!r} seed={config.seed} "
          f"algorithm={config.algorithm} mode={config.mode}")
    print(f"  grid: {grid.directory.n_alive} peers, "
          f"{grid.catalog.n_instances} service instances")
    print(f"  listening on http://{host}:{port}  (Ctrl-C to stop)")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            signal.signal(sig, lambda *_: stop.set())
    await stop.wait()
    print("\nshutting down ...")
    await server.stop()
    return runtime


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = _build_serve_config(args)
        runtime = asyncio.run(_serve_until_signal(config))
    except (ValueError, OSError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 1
    print(f"served {runtime.n_http_requests} requests "
          f"({runtime.n_compose} compose, {runtime.n_admitted} admitted, "
          f"{runtime.n_rejected} rejected, {runtime.n_released} released)")
    ledger = runtime.grid.ledger
    print(f"sessions: {ledger.n_admitted} admitted, "
          f"{ledger.n_completed} completed, {ledger.n_failed} failed, "
          f"{ledger.n_active} still active")
    if config.telemetry_path is not None:
        n = runtime.export_telemetry()
        print(f"telemetry: {n} events -> {config.telemetry_path}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    try:
        return run_top(
            args.host, args.port,
            interval=args.interval,
            iterations=args.iterations,
        )
    except (TimeoutError, OSError) as exc:
        print(f"repro top: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import SoakConfig, run_soak

    try:
        config = SoakConfig(
            host=args.host,
            port=args.port,
            duration_seconds=args.duration,
            rate_per_sec=args.rate,
            concurrency=args.concurrency,
            seed=args.seed,
            release_ratio=args.release_ratio,
            sample_interval=args.sample_interval,
        )
        report = run_soak(config)
    except ValueError as exc:
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 1
    except (TimeoutError, OSError) as exc:
        print(f"repro loadgen: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    lg = report.loadgen
    lat = lg.latency_summary_us()
    print(f"soak: {lg.sent} sent over {lg.wall_seconds:.1f}s "
          f"({lg.requests_per_sec:.1f} req/s offered ~{config.rate_per_sec:g})")
    print(f"  outcomes: {lg.admitted} admitted (ψ={lg.psi:.3f}), "
          f"{lg.rejected} rejected, {lg.released} released, "
          f"{lg.errors} errors")
    print(f"  compose RTT: p50={lat['p50']:.0f}µs p95={lat['p95']:.0f}µs "
          f"p99={lat['p99']:.0f}µs")
    print(f"  slo states seen: {', '.join(report.slo_states) or '(none)'}")
    rss = report.rss_drift()
    latency = report.latency_drift()
    print(f"  drift: rss={rss:.3f}x" if rss is not None
          else "  drift: rss=n/a", end="")
    print(f" latency={latency:.3f}x" if latency is not None
          else " latency=n/a", end="")
    print(f"  (limits {report.RSS_DRIFT_LIMIT:g}x / "
          f"{report.LATENCY_DRIFT_LIMIT:g}x) -> "
          f"{'OK' if report.drift_ok() else 'DRIFTING'}")
    if args.json_out is not None:
        import json

        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  report -> {args.json_out}")
    if lg.errors:
        return 1
    return 0 if report.drift_ok() else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import LoadgenConfig, run_loadgen

    if getattr(args, "soak", False):
        return _cmd_soak(args)
    try:
        config = LoadgenConfig(
            host=args.host,
            port=args.port,
            n_requests=args.n_requests,
            concurrency=args.concurrency,
            mode=args.mode,
            rate_per_sec=args.rate,
            seed=args.seed,
            release_ratio=args.release_ratio,
        )
        report = run_loadgen(config)
    except ValueError as exc:
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 1
    except (TimeoutError, OSError) as exc:
        print(f"repro loadgen: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    lat = report.latency_summary_us()
    print(f"loadgen: {report.sent} sent in {report.wall_seconds:.2f}s "
          f"({report.requests_per_sec:.1f} req/s, mode={config.mode})")
    print(f"  outcomes: {report.admitted} admitted (ψ={report.psi:.3f}), "
          f"{report.rejected} rejected, {report.released} released, "
          f"{report.errors} errors")
    print(f"  compose RTT: p50={lat['p50']:.0f}µs p95={lat['p95']:.0f}µs "
          f"p99={lat['p99']:.0f}µs max={lat['max']:.0f}µs")
    return 1 if report.errors else 0

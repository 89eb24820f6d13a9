"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure5`` / ``figure6`` / ``figure7`` / ``figure8``
    Regenerate one of the paper's result figures and print its
    table/series (same output as the benches, without pytest).
``run``
    One custom experiment: choose algorithm, rate, horizon, churn, seed.
    ``--telemetry PATH`` records the full telemetry stream and writes it
    as JSONL.  ``--faults PLAN.json`` runs under a fault-injection plan
    (see :mod:`repro.faults.plan` for the format) and prints the
    injection summary.
``telemetry``
    Work with the telemetry subsystem: ``catalog`` prints the event and
    metric catalogs, ``summary PATH`` summarizes an exported JSONL
    stream (event counts, ordering, and p50/p95/p99 for the histograms
    reconstructable from the stream).
``trace``
    Analyze the spans of an exported stream (telemetry JSONL or a
    profile trace): ``tree`` renders the span forest, ``critical-path``
    attributes time to pipeline phases, ``flame`` exports folded stacks
    (flamegraph.pl / speedscope compatible).
``profile``
    Run one experiment under wall-clock profiling: hot-path span
    attribution, throughput counters, optional cProfile top-N, optional
    wall-trace export for the ``trace`` commands.
``serve``
    Run the grid as a long-lived QoS-composition service over HTTP
    (see :mod:`repro.serve` and docs/serving.md): ``POST /compose``,
    session inspection/teardown, ``/status``, ``/metrics``.
``loadgen``
    Drive a running server with the §4.1 workload over HTTP
    (open/closed loop) and report throughput + RTT percentiles.
``info``
    Package, capability and scale information (the same build
    descriptor ``GET /status`` serves).

Examples::

    python -m repro figure5 --rates 100 400 1000 --horizon 30
    python -m repro run --algorithm random --rate 200 --churn 50
    python -m repro run --rate 100 --telemetry events.jsonl
    python -m repro run --rate 100 --faults plan.json
    python -m repro telemetry summary events.jsonl
    python -m repro trace critical-path events.jsonl
    python -m repro profile run --rate 100 --cprofile --trace-out prof.jsonl
    python -m repro trace flame prof.jsonl --out prof.folded
    python -m repro serve --scenario baseline --port 8177 --telemetry serve.jsonl
    python -m repro loadgen --port 8177 -n 500 --concurrency 8
    REPRO_PAPER_SCALE=1 python -m repro figure7
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import figures
from repro.experiments.config import default_scale, is_paper_scale, scale_factor
from repro.experiments.reporting import banner, format_series_table, format_sweep_table
from repro.experiments.runner import run_experiment
from repro.grid import ALGORITHMS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Scalable QoS-Aware Service Aggregation "
            "Model for Peer-to-Peer Computing Grids' (HPDC 2002)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f5 = sub.add_parser("figure5", help="average ψ vs request rate")
    f5.add_argument("--rates", type=float, nargs="+",
                    default=[50, 100, 200, 400, 600, 800, 1000])
    f5.add_argument("--horizon", type=float, default=60.0)
    f5.add_argument("--seed", type=int, default=0)
    f5.add_argument("--plot", action="store_true",
                    help="render an ASCII chart as well")

    f6 = sub.add_parser("figure6", help="ψ fluctuation at 200 req/min")
    f6.add_argument("--rate", type=float, default=200.0)
    f6.add_argument("--horizon", type=float, default=100.0)
    f6.add_argument("--seed", type=int, default=0)
    f6.add_argument("--plot", action="store_true")

    f7 = sub.add_parser("figure7", help="average ψ vs churn rate")
    f7.add_argument("--churn-rates", type=float, nargs="+",
                    default=[0, 25, 50, 100, 150, 200])
    f7.add_argument("--rate", type=float, default=100.0)
    f7.add_argument("--horizon", type=float, default=60.0)
    f7.add_argument("--seed", type=int, default=0)
    f7.add_argument("--plot", action="store_true")

    f8 = sub.add_parser("figure8", help="ψ fluctuation under churn")
    f8.add_argument("--rate", type=float, default=100.0)
    f8.add_argument("--churn", type=float, default=100.0)
    f8.add_argument("--horizon", type=float, default=60.0)
    f8.add_argument("--seed", type=int, default=0)
    f8.add_argument("--plot", action="store_true")

    run = sub.add_parser("run", help="one custom experiment")
    run.add_argument("--algorithm", choices=ALGORITHMS,
                     default="qsa")
    run.add_argument("--rate", type=float, default=100.0,
                     help="request rate, req/min in paper units")
    run.add_argument("--horizon", type=float, default=30.0)
    run.add_argument("--churn", type=float, default=0.0,
                     help="churn rate, peers/min in paper units")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--no-uptime-filter", action="store_true",
                     help="disable QSA's uptime term (ablation A1)")
    run.add_argument("--telemetry", metavar="PATH", default=None,
                     help="record full telemetry and export it as JSONL")
    run.add_argument("--faults", metavar="PLAN.json", default=None,
                     help="inject faults from a JSON fault plan")
    run.add_argument("--sanitize", metavar="PATH", default=None,
                     help="run under the determinism sanitizer and export "
                          "the draw/write ledger as JSONL")

    tel = sub.add_parser("telemetry", help="telemetry catalog and tools")
    tel_sub = tel.add_subparsers(dest="telemetry_action", required=True)
    tel_sub.add_parser("catalog", help="print the event/metric catalogs")
    tel_summary = tel_sub.add_parser(
        "summary", help="summarize an exported JSONL event stream"
    )
    tel_summary.add_argument("path", help="JSONL file from --telemetry")

    trace = sub.add_parser("trace", help="span analytics over a JSONL stream")
    trace_sub = trace.add_subparsers(dest="trace_action", required=True)
    tr_tree = trace_sub.add_parser("tree", help="render the span forest")
    tr_tree.add_argument("path", help="telemetry JSONL or profile trace")
    tr_tree.add_argument("--limit", type=int, default=200,
                         help="max lines to print")
    tr_cp = trace_sub.add_parser(
        "critical-path",
        help="per-phase time attribution and dominant phases",
    )
    tr_cp.add_argument("path", help="telemetry JSONL or profile trace")
    tr_cp.add_argument("--root", default="request",
                       help="root span name to analyze (default: request)")
    tr_flame = trace_sub.add_parser(
        "flame", help="folded-stack output (flamegraph.pl / speedscope)"
    )
    tr_flame.add_argument("path", help="telemetry JSONL or profile trace")
    tr_flame.add_argument("--out", default=None,
                          help="write folded stacks here (default: stdout)")
    tr_flame.add_argument("--counts", action="store_true",
                          help="weight stacks by span count, not self time")
    tr_req = trace_sub.add_parser(
        "request",
        help="fetch one request's correlated span tree from a live "
             "server by trace id",
    )
    tr_req.add_argument("trace_id", help="trace id (x-repro-trace header / "
                                         "compose response)")
    tr_req.add_argument("--host", default="127.0.0.1")
    tr_req.add_argument("--port", type=int, default=8177)
    tr_req.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw span records as JSON")

    prof = sub.add_parser("profile", help="wall-clock profiling")
    prof_sub = prof.add_subparsers(dest="profile_action", required=True)
    prof_run = prof_sub.add_parser(
        "run", help="run one experiment under the profiler"
    )
    prof_run.add_argument("--algorithm", choices=ALGORITHMS,
                          default="qsa")
    prof_run.add_argument("--rate", type=float, default=100.0,
                          help="request rate, req/min in paper units")
    prof_run.add_argument("--horizon", type=float, default=30.0)
    prof_run.add_argument("--churn", type=float, default=0.0,
                          help="churn rate, peers/min in paper units")
    prof_run.add_argument("--seed", type=int, default=0)
    prof_run.add_argument("--cprofile", action="store_true",
                          help="also run cProfile and print a top-N table")
    prof_run.add_argument("--top", type=int, default=25,
                          help="cProfile rows to keep (with --cprofile)")
    prof_run.add_argument("--trace-out", metavar="PATH", default=None,
                          help="export the wall-span trace as JSONL "
                               "(feed to `repro trace`)")

    sanitize = sub.add_parser(
        "sanitize", help="determinism sanitizer ledger tools"
    )
    san_sub = sanitize.add_subparsers(dest="sanitize_action", required=True)
    san_cmp = san_sub.add_parser(
        "compare", help="diff two draw/write ledgers (exit 1 on divergence)"
    )
    san_cmp.add_argument("ledger_a", help="first sanitize JSONL ledger")
    san_cmp.add_argument("ledger_b", help="second sanitize JSONL ledger")
    san_over = san_sub.add_parser(
        "overhead", help="measure sanitizer overhead on the baseline scenario"
    )
    san_over.add_argument("--rate", type=float, default=100.0)
    san_over.add_argument("--horizon", type=float, default=20.0)
    san_over.add_argument("--seed", type=int, default=0)
    san_over.add_argument("--repeat", type=int, default=3,
                          help="runs per arm; the minimum wall time wins")

    from repro.serve.cli import (
        add_loadgen_arguments,
        add_serve_arguments,
        add_top_arguments,
    )

    serve = sub.add_parser(
        "serve", help="run the grid as a long-lived composition service"
    )
    add_serve_arguments(serve)
    loadgen = sub.add_parser(
        "loadgen", help="drive a running server with the §4.1 workload"
    )
    add_loadgen_arguments(loadgen)
    top = sub.add_parser(
        "top", help="live terminal view of a running server (windowed "
                    "rates, SLO states, worst traces)"
    )
    add_top_arguments(top)

    sub.add_parser("info", help="package, capability and scale information")
    return parser


def _plot_sweep(sweep, x_label: str, title: str) -> None:
    from repro.experiments.plotting import ascii_chart

    print()
    print(ascii_chart(
        {name: (sweep.x_values, ys) for name, ys in sweep.ratios.items()},
        y_range=(0.0, 1.0),
        x_label=x_label,
        title=title,
    ))


def _plot_series(series, title: str) -> None:
    from repro.experiments.plotting import ascii_chart

    print()
    print(ascii_chart(
        {name: (series.times, ys) for name, ys in series.ratios.items()},
        y_range=(0.0, 1.0),
        x_label="time (min)",
        title=title,
    ))


def _cmd_figure5(args) -> int:
    sweep = figures.figure5(tuple(args.rates), args.horizon, args.seed)
    print(banner("Figure 5 -- average ψ vs request rate"))
    print(format_sweep_table(sweep.x_label, sweep.x_values, sweep.ratios))
    if args.plot:
        _plot_sweep(sweep, "request rate (req/min)", "ψ vs request rate")
    return 0


def _cmd_figure6(args) -> int:
    series = figures.figure6(args.rate, args.horizon, seed=args.seed)
    print(banner(f"Figure 6 -- ψ fluctuation at {args.rate:g} req/min"))
    print(format_series_table("time (min)", series.times, series.ratios))
    print("overall: " + ", ".join(
        f"{a}={v:.3f}" for a, v in series.overall.items()))
    if args.plot:
        _plot_series(series, f"ψ fluctuation at {args.rate:g} req/min")
    return 0


def _cmd_figure7(args) -> int:
    sweep = figures.figure7(
        tuple(args.churn_rates), args.rate, args.horizon, args.seed
    )
    print(banner("Figure 7 -- average ψ vs topological variation rate"))
    print(format_sweep_table(sweep.x_label, sweep.x_values, sweep.ratios))
    if args.plot:
        _plot_sweep(sweep, "churn rate (peers/min)", "ψ vs churn")
    return 0


def _cmd_figure8(args) -> int:
    series = figures.figure8(args.rate, args.churn, args.horizon,
                             seed=args.seed)
    print(banner("Figure 8 -- ψ fluctuation under churn"))
    print(format_series_table("time (min)", series.times, series.ratios))
    print("overall: " + ", ".join(
        f"{a}={v:.3f}" for a, v in series.overall.items()))
    if args.plot:
        _plot_series(series, f"ψ under churn {args.churn:g} peers/min")
    return 0


def _cmd_run(args) -> int:
    config = default_scale(args.rate, args.horizon, args.churn, args.seed)
    options = {}
    if args.algorithm == "qsa" and args.no_uptime_filter:
        options["uptime_filter"] = False
    config = config.with_algorithm(args.algorithm, **options)
    if args.faults is not None:
        from repro.faults.plan import FaultPlan

        try:
            plan = FaultPlan.load(args.faults)
        except OSError as exc:
            print(f"cannot read fault plan {args.faults}: {exc}",
                  file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"invalid fault plan {args.faults}: {exc}",
                  file=sys.stderr)
            return 1
        config = config.with_faults(plan)
        print(f"fault plan: {plan}")
    if args.telemetry is not None:
        # Fail fast on an unwritable path rather than after the run.
        try:
            with open(args.telemetry, "w"):
                pass
        except OSError as exc:
            print(f"cannot write telemetry to {args.telemetry}: {exc}",
                  file=sys.stderr)
            return 1
        config = config.with_telemetry(args.telemetry)
    if args.sanitize is not None:
        try:
            with open(args.sanitize, "w"):
                pass
        except OSError as exc:
            print(f"cannot write sanitize ledger to {args.sanitize}: {exc}",
                  file=sys.stderr)
            return 1
        config = config.with_sanitize(args.sanitize)
    result = run_experiment(config)
    print(result.summary())
    print(f"DHT lookups:          {result.n_routed_discoveries} routed, "
          f"{result.mean_lookup_hops:.2f} mean hops per request")
    print(f"probing overhead:     {result.probe_overhead:.2%}")
    if result.n_arrivals or result.n_departures:
        print(f"churn events:         {result.n_arrivals} arrivals, "
              f"{result.n_departures} departures")
    print(f"wall clock:           {result.wall_seconds:.1f}s")
    if result.fault_summary is not None:
        print()
        print(result.fault_summary)
    if args.telemetry is not None:
        print(f"telemetry:            {result.n_telemetry_events} events "
              f"-> {args.telemetry}")
        print()
        print(result.telemetry_summary)
    if args.sanitize is not None:
        print(f"sanitize ledger:      {result.n_sanitize_records} records "
              f"-> {args.sanitize}")
    return 0


def _cmd_telemetry(args) -> int:
    if args.telemetry_action == "catalog":
        from repro.telemetry import format_catalog

        print(format_catalog())
        return 0
    # summary <path>
    import json

    from repro.telemetry.metrics import Histogram
    from repro.telemetry.windows import SlidingWindow

    counts: dict = {}
    t_min = t_max = None
    prev = None
    monotone = True
    n = 0
    # Histograms reconstructable from the stream itself; surfaced with
    # the same p50/p95/p99 columns the registry summary prints.  The
    # cumulative percentiles cover the first 10k observations only; the
    # windowed row next to each shows the *rolling* view over the last
    # window of the stream, so the two cannot be confused.
    hists = {
        "lookup.hops": Histogram("lookup.hops"),
        "recovery.latency": Histogram("recovery.latency"),
        "session.duration": Histogram("session.duration"),
    }
    windows = {name: SlidingWindow(name) for name in hists}
    try:
        stream = open(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 1

    def _observe(name: str, t: float, value: float) -> None:
        hists[name].observe(value)
        windows[name].observe(t, value)

    with stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"{args.path}: invalid JSON on line {lineno}: {exc}",
                      file=sys.stderr)
                return 1
            n += 1
            event = rec["event"]
            counts[event] = counts.get(event, 0) + 1
            t = rec["t"]
            t_min = t if t_min is None else min(t_min, t)
            t_max = t if t_max is None else max(t_max, t)
            if prev is not None and t < prev:
                monotone = False
            prev = t
            if event == "lookup.done" and "hops" in rec:
                _observe("lookup.hops", t, rec["hops"])
            elif event == "recovery.repaired" and "latency" in rec:
                _observe("recovery.latency", t, rec["latency"])
            elif event == "span" and rec.get("name") == "session":
                _observe("session.duration", t, t - rec.get("start", t))
    if n == 0:
        print(f"{args.path}: empty event stream")
        return 0
    print(f"{args.path}: {n} events, "
          f"t = [{t_min:g}, {t_max:g}] min, "
          f"timestamps {'monotone' if monotone else 'OUT OF ORDER'}")
    width = max(len(k) for k in counts)
    for name in sorted(counts):
        print(f"  {name:<{width}}  {counts[name]:>8d}")
    filled = {name: h for name, h in hists.items() if h.count}
    if filled:
        width = max(len(name) for name in filled)
        print("histograms"
              + " " * max(1, width - 4)
              + "count       mean        p50        p95        p99"
              + "   (percentiles: first 10k observations)")
        for name, h in sorted(filled.items()):
            print(f"  {name:<{width}}  {h.count:>8d} {h.mean:>10.3f} "
                  f"{h.percentile(50):>10.3f} {h.percentile(95):>10.3f} "
                  f"{h.percentile(99):>10.3f}")
        window_width = windows[next(iter(filled))].config.width
        print(f"windowed (last {window_width:g} min of the stream)")
        for name in sorted(filled):
            s = windows[name].stats(t_max)
            print(f"  {name:<{width}}  {s['count']:>8d} {s['mean']:>10.3f} "
                  f"{s['p50']:>10.3f} {s['p95']:>10.3f} "
                  f"{s['p99']:>10.3f}")
    return 0 if monotone else 1


def _cmd_trace(args) -> int:
    if args.trace_action == "request":
        from repro.serve.client import ServeApiError, ServeClient

        try:
            with ServeClient(args.host, args.port) as client:
                view = client.trace(args.trace_id)
        except ServeApiError as exc:
            print(f"repro trace request: {exc.message}", file=sys.stderr)
            return 1
        except (TimeoutError, OSError) as exc:
            print(f"repro trace request: cannot reach "
                  f"{args.host}:{args.port}: {exc}", file=sys.stderr)
            return 1
        if args.as_json:
            import json

            print(json.dumps(view, indent=2, sort_keys=True))
            return 0
        print(f"trace {view['trace_id']}: {view['n_spans']} spans")
        print(view["tree"])
        return 0

    from repro.telemetry.analysis import (
        TraceAnalysisError,
        build_forest,
        folded_stacks,
        load_jsonl_spans,
        phase_report,
        render_folded,
        render_forest,
    )

    try:
        records, unit = load_jsonl_spans(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except TraceAnalysisError as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"{args.path}: no span events in this stream "
              "(was the run telemetry-enabled?)", file=sys.stderr)
        return 1
    forest = build_forest(records)
    if args.trace_action == "tree":
        print(render_forest(forest, unit, limit=args.limit))
        return 0
    if args.trace_action == "critical-path":
        unit_note = "wall seconds" if unit == "s" else "sim minutes"
        print(f"{args.path}: {len(records)} spans, durations in {unit_note}")
        print(phase_report(forest, root_name=args.root))
        return 0
    # flame
    stacks = folded_stacks(forest, by_count=args.counts)
    folded = render_folded(stacks)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(folded)
            fh.write("\n")
        print(f"{len(stacks)} stacks -> {args.out}")
    else:
        print(folded)
    return 0


def _cmd_profile(args) -> int:
    from repro.telemetry.profiling import profile_run

    config = default_scale(args.rate, args.horizon, args.churn, args.seed)
    config = config.with_algorithm(args.algorithm)
    result, report = profile_run(
        config,
        cprofile=args.cprofile,
        top=args.top,
        trace_out=args.trace_out,
    )
    print(result.summary())
    print()
    print(report.render())
    if args.trace_out is not None:
        print()
        print(f"wall-span trace: {len(report.wall_spans)} spans "
              f"-> {args.trace_out} (analyze with `repro trace`)")
    return 0


def _cmd_sanitize(args) -> int:
    if args.sanitize_action == "compare":
        from repro.sim.sanitizer import compare_ledger_files

        try:
            verdict = compare_ledger_files(args.ledger_a, args.ledger_b)
        except OSError as exc:
            print(f"cannot read ledger: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"malformed ledger: {exc}", file=sys.stderr)
            return 2
        print(verdict.render())
        return 0 if verdict.identical else 1

    # overhead: run the baseline scenario with the sanitizer off and on,
    # prove telemetry byte-identity, and report the wall-clock delta.
    import hashlib
    import os
    import tempfile
    import time as _time

    def _arm(sanitize_path) -> tuple:
        config = default_scale(args.rate, args.horizon, 0.0, args.seed)
        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", delete=False
        ) as handle:
            tel_path = handle.name
        config = config.with_telemetry(tel_path)
        if sanitize_path is not None:
            config = config.with_sanitize(sanitize_path)
        best = float("inf")
        for _ in range(max(1, args.repeat)):
            t0 = _time.perf_counter()
            run_experiment(config)
            elapsed = _time.perf_counter() - t0
            best = min(best, elapsed)
        with open(tel_path, "rb") as fh:
            digest = hashlib.blake2b(fh.read(), digest_size=16).hexdigest()
        os.unlink(tel_path)
        return best, digest

    import os

    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        ledger_path = handle.name
    off_s, off_digest = _arm(None)
    on_s, on_digest = _arm(ledger_path)
    os.unlink(ledger_path)
    overhead = (on_s - off_s) / off_s if off_s else float("inf")
    print(f"baseline rate={args.rate:g} horizon={args.horizon:g} "
          f"seed={args.seed} (best of {max(1, args.repeat)})")
    print(f"sanitizer off: {off_s:.3f}s  telemetry blake2b {off_digest}")
    print(f"sanitizer on:  {on_s:.3f}s  telemetry blake2b {on_digest}")
    print(f"overhead:      {overhead:+.1%}")
    identical = off_digest == on_digest
    print(f"telemetry byte-identical: {'yes' if identical else 'NO'}")
    return 0 if identical else 1


def _cmd_info(args) -> int:
    # One source of truth with the serving plane: `repro info` prints the
    # same build/capability descriptor `GET /status` embeds.
    from repro.capabilities import build_descriptor

    desc = build_descriptor()
    print(f"{desc['name']} {desc['version']}  (api {desc['serve_api']})")
    print(f"paper: {desc['paper']}")
    print(f"algorithms:       {', '.join(desc['algorithms'])}")
    print(f"fault kinds:      {', '.join(desc['fault_kinds'])}")
    print(f"scenarios:        {', '.join(desc['scenarios'])}")
    print(f"paper scale active: {is_paper_scale()} "
          f"(population factor {scale_factor():g})")
    cfg = default_scale(100, 60)
    print(f"default experiment grid: {cfg.grid.n_peers} peers, "
          f"probe budget M={cfg.grid.probing.budget}, "
          f"seed={cfg.grid.seed}")
    print("set REPRO_PAPER_SCALE=1 for the paper's 10^4-peer setup")
    return 0


_COMMANDS = {
    "figure5": _cmd_figure5,
    "figure6": _cmd_figure6,
    "figure7": _cmd_figure7,
    "figure8": _cmd_figure8,
    "run": _cmd_run,
    "telemetry": _cmd_telemetry,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "sanitize": _cmd_sanitize,
    "info": _cmd_info,
}


def _cmd_serve(args) -> int:
    from repro.serve.cli import cmd_serve

    return cmd_serve(args)


def _cmd_loadgen(args) -> int:
    from repro.serve.cli import cmd_loadgen

    return cmd_loadgen(args)


def _cmd_top(args) -> int:
    from repro.serve.cli import cmd_top

    return cmd_top(args)


_COMMANDS["serve"] = _cmd_serve
_COMMANDS["loadgen"] = _cmd_loadgen
_COMMANDS["top"] = _cmd_top


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `repro trace flame ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

Three entry points, all seeded (``--seed``, default 0):

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    The driver's contract.  Repeats whole passes of workload ``W`` (each in
    a fresh process, same inputs) until ``S`` seconds have been spent, never
    fewer than three, and prints one JSON object as the last line of stdout:
    every ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0``,
    every ``per_layer`` metric with ``--trace 1`` (one untraced pass for the
    overhead baseline, then traced passes).

``python3 bench/run.py``
    Every workload: passes interleaved round-robin (A B C D, A B C D, ...)
    so host drift hits all alike, then one traced pass each.  Prints every
    metric by name with its unit and writes ``bench/out/results-seed<N>.json``.

``python3 bench/run.py --repeat-check``
    Two full sets of end-to-end runs of the same code; prints both values,
    their relative difference and the bound per workload x metric, and exits
    non-zero if a pair disagrees beyond its bound or a deterministic count
    differs.

Outputs are checked in the same command (Eq. 1 along admitted paths, no
leaked reservation after the drain, deterministic counts identical across
passes, HTTP contract statuses only ...); any finding makes the exit code
non-zero and ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SERVE = "serve-mixed"
MIN_PASSES = 3
#: A pass that takes longer than this is killed with its process group.
PASS_TIMEOUT_S = 150
#: serve-mixed interleaves two connections, so its psi is not bit-stable.
SERVE_PSI_TOLERANCE = 0.03

#: Per-layer metrics that are deterministic per seed: printed as counts and
#: required identical across the passes of one run (in-process workloads).
EXACT = frozenset({
    "sim.events", "services.compile.calls", "lookup.candidates.calls",
    "lookup.hosts.calls", "lookup.routed", "lookup.cached", "lookup.hops",
    "lookup.ring_lookups", "lookup.membership.calls", "core.composition.calls",
    "core.composition.failed", "core.composition.candidates_per_layer_mean",
    "core.selection.hop.calls", "core.selection.random_fallbacks",
    "core.selection.failed", "probing.resolve.calls", "probing.probe_messages",
    "probing.overhead_ratio", "sessions.admit.calls", "sessions.admitted",
    "sessions.rejected", "sessions.failed", "sessions.completed",
    "network.churn.arrivals", "network.churn.departures",
})


class BenchError(Exception):
    """A pass could not be completed (crash, timeout, missing program)."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- one pass in a fresh process --------------------------------------------------
def run_pass(workload: str, seed: int, traced: bool = False,
             smoke: bool = False) -> Dict[str, Any]:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError(f"no program to measure: {ROOT}/src/repro is missing")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "passes.py"),
           "--workload", workload, "--seed", str(seed),
           "--spawned-at", repr(time.time())]
    if smoke:
        cmd.append("--smoke")
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--traced", "--trace-out",
                os.path.join(OUT_DIR, f"trace-{workload}.jsonl")]
    env = dict(os.environ)
    env.pop("REPRO_PAPER_SCALE", None)
    # Own process group: a timeout reaps the pass *and* its server child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: pass exceeded {PASS_TIMEOUT_S}s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload}: pass exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


# -- aggregation over passes ------------------------------------------------------
def consistency_problems(workload: str, passes: Sequence[Dict[str, Any]]) -> List[str]:
    """psi and every deterministic count identical across same-seed passes."""
    problems: List[str] = []
    psis = [p["psi"] for p in passes]
    if workload == SERVE:
        # ... nor within ten verdicts of the composes sent (smoke sizes).
        tolerance = max(SERVE_PSI_TOLERANCE, 10 / min(p["verdicts"] for p in passes))
        if max(psis) - min(psis) > tolerance:
            problems.append(f"psi varies across passes: {psis}")
        return problems
    if len(set(psis)) > 1:
        problems.append(f"psi differs across passes: {psis}")
    for name in sorted(EXACT):
        values = {p["layers"][name] for p in passes if name in p["layers"]}
        if len(values) > 1:
            problems.append(f"{name} differs across passes: {sorted(values)}")
    return problems


def p99(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def end_to_end(passes: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The median over the same-seed passes of a run, metric by metric.

    Run time and latencies arrive host-speed normalised (hostspeed.py).
    p99 is the median of the per-pass p99s: in the sizing trials that was
    steadier than one percentile over the pooled latencies, which a single
    disturbed pass contaminates.
    """
    med = statistics.median
    return {
        "setup_s": med(p["setup_s"] for p in passes),
        "requests_per_s": med(p["verdicts"] / p["run_s"] for p in passes),
        "setup_latency_p50_us": med(med(p["latencies_us"]) for p in passes),
        "setup_latency_p99_us": med(p99(p["latencies_us"]) for p in passes),
        "psi": med(p["psi"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(workload: str, plain: Dict[str, Any], traced: Sequence[Dict[str, Any]],
              specs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The layer table: medians over the traced passes, with what the
    untraced pass measured itself (counts, two-connection serve latencies)
    taking precedence.  A metric no pass of this workload produces is 0."""
    values: Dict[str, float] = {}
    for name in {k for p in traced for k in p["layers"]}:
        values[name] = statistics.median(
            p["layers"][name] for p in traced if name in p["layers"]
        )
    values.update(plain["layers"])
    if workload == SERVE:
        values["serve.queue_wait_p50_us"] = (
            statistics.median(plain["latencies_us"]) - values["serve.rtt1_p50_us"]
        )
        untraced_s = statistics.median(p["replay_run_s"]["untraced"] for p in traced)
        traced_s = statistics.median(p["replay_run_s"]["traced"] for p in traced)
    else:
        untraced_s = plain["run_s"]
        traced_s = statistics.median(p["run_s"] for p in traced)
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    unknown = sorted(set(values) - {s["name"] for s in specs})
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    return with_units({s["name"]: values.get(s["name"], 0.0) for s in specs}, specs)


def with_units(values: Dict[str, float], specs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def print_metrics(title: str, metrics: Dict[str, Any]) -> None:
    print(f"-- {title}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{int(value)}" if name in EXACT and value == int(value) else f"{value:.6g}"
        print(f"   {name:<48} {shown:>14} {m['unit']}")


# -- the driver's contract: one workload, one JSON line ---------------------------
def cmd_contract(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    workload, trace = args.workload, bool(args.trace)
    print(f"# {workload} {json.dumps(environment(args.seed))}")
    started = time.monotonic()
    passes: List[Dict[str, Any]] = []
    # --trace 1: the first pass stays untraced (overhead baseline, counts).
    while (len(passes) < (2 if trace else MIN_PASSES)
           or time.monotonic() - started < args.seconds):
        passes.append(run_pass(workload, args.seed, traced=trace and bool(passes),
                               smoke=args.smoke))
    problems = [f"pass {i}: {p}" for i, d in enumerate(passes) for p in d["problems"]]
    problems += consistency_problems(workload, passes)
    if trace:
        metrics = per_layer(workload, passes[0], passes[1:], spec["per_layer"])
    else:
        metrics = with_units(end_to_end(passes), spec["end_to_end"])
    print_metrics(f"{workload} (trace {args.trace})", metrics)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


# -- the whole suite, interleaved -------------------------------------------------
def interleaved_set(workloads: Sequence[str], seed: int, repetitions: int,
                    smoke: bool) -> Tuple[Dict[str, List[Dict[str, Any]]], List[str]]:
    passes: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for rep in range(repetitions):
        for workload in workloads:
            print(f"   pass {rep + 1}/{repetitions} {workload}", file=sys.stderr)
            passes[workload].append(run_pass(workload, seed, smoke=smoke))
    problems = [f"{workload}: {p}" for workload, docs in passes.items()
                for d in docs for p in d["problems"]]
    return passes, problems


def cmd_suite(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    env = environment(args.seed)
    print(f"# {json.dumps(env)}")
    passes, problems = interleaved_set(workloads, args.seed, args.repetitions, args.smoke)
    results: Dict[str, Any] = {"environment": env, "workloads": {}}
    for workload in workloads:
        print(f"   traced pass {workload}", file=sys.stderr)
        traced = run_pass(workload, args.seed, traced=True, smoke=args.smoke)
        problems += [f"{workload} (traced): {p}" for p in traced["problems"]]
        problems += [
            f"{workload}: {p}"
            for p in consistency_problems(workload, passes[workload] + [traced])
        ]
        e2e = with_units(end_to_end(passes[workload]), spec["end_to_end"])
        layers = per_layer(workload, passes[workload][0], [traced], spec["per_layer"])
        samples = len(passes[workload][0]["latencies_us"])
        print_metrics(f"{workload}: end to end (median of {args.repetitions} "
                      f"passes, {samples} latency samples per pass)", e2e)
        print_metrics(f"{workload}: per layer (1 traced pass)", layers)
        results["workloads"][workload] = {
            "attempted": sum(p["attempted"] for p in passes[workload]),
            "failed": sum(p["failed"] for p in passes[workload]),
            "latency_samples_per_pass": samples,
            "end_to_end": e2e,
            "per_layer": layers,
        }
    results["problems"] = problems
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"# results -> {os.path.relpath(path, ROOT)}")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_repeat_check(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"# repeat-check {json.dumps(environment(args.seed))}")
    first, problems = interleaved_set(workloads, args.seed, args.repetitions, args.smoke)
    second, more = interleaved_set(workloads, args.seed, args.repetitions, args.smoke)
    problems += more
    print(f"{'workload':<14} {'metric':<22} {'first':>12} {'second':>12} "
          f"{'rel.diff':>9} {'bound':>6}")
    for workload in workloads:
        problems += [
            f"{workload}: {p}"
            for p in consistency_problems(workload, first[workload] + second[workload])
        ]
        a, b = end_to_end(first[workload]), end_to_end(second[workload])
        for m in spec["end_to_end"]:
            name = m["name"]
            diff = abs(b[name] - a[name]) / abs(a[name])
            ok = diff <= m["bound"]
            print(f"{workload:<14} {name:<22} {a[name]:>12.6g} {b[name]:>12.6g} "
                  f"{diff:>9.4f} {m['bound']:>6.2f}{'' if ok else '  DISAGREE'}")
            if not ok:
                problems.append(f"{workload}: {name} differs by {diff:.4f} "
                                f"(bound {m['bound']})")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="measure one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of one --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetitions", type=int, default=MIN_PASSES,
                        help="passes per workload in suite / repeat-check mode")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="~200-request workloads (bench/tests only)")
    args = parser.parse_args(argv)
    if args.repetitions < MIN_PASSES and not args.smoke:
        parser.error(f"--repetitions must be at least {MIN_PASSES}")
    try:
        if args.workload:
            return cmd_contract(args, spec)
        if args.repeat_check:
            return cmd_repeat_check(args, spec)
        return cmd_suite(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Which ``src/repro`` definitions production runs: a stdlib reachability audit.

Sorts each definition by the sets that entered it under a ``sys.setprofile`` hook:
``production`` (every subcommand; ``repro serve`` per mode over every route, with
``loadgen``, ``top``, ``trace request``; the examples; ``bench/run.py``), ``benchmarks`` and
``tests`` (tier-1).  Children inherit the hook through a ``usercustomize`` in a temporary
``PYTHONUSERBASE``; a pytest plugin re-arms it per test, as cProfile clears it.  ``python
scripts/reach.py [SET ...]`` (``make reach``, ~25 min) maps raw hits (``build/reach/``) to
line numbers at report time, so do not edit the tree meanwhile."""

import ast, os, signal, subprocess, sys, sysconfig, tempfile, threading, time  # noqa: E401
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC, OUT = ROOT / "src" / "repro", ROOT / "build" / "reach"
SETS, PLAN, _seen = ("production", "benchmarks", "tests"), "examples/plans/ci-chaos.json", set()
COMMANDS = """info | telemetry catalog | figure5 --rates 50 100 --horizon 3 --plot |
figure6 --horizon 3 --plot | figure7 --churn-rates 0 50 --horizon 3 | figure8 --horizon 3 --plot |
run --algorithm qsa {short} | run --algorithm random {short} | run --algorithm fixed {short} |
run --no-uptime-filter --churn 10 {short} | run {faulted} --sanitize {tmp}/b.jsonl |
run {faulted} --telemetry {tmp}/r.jsonl --sanitize {tmp}/a.jsonl | telemetry summary {tmp}/r.jsonl |
sanitize compare {tmp}/a.jsonl {tmp}/b.jsonl | sanitize overhead {short} --repeat 1 |
trace tree --limit 20 {tmp}/r.jsonl | trace critical-path {tmp}/r.jsonl | trace flame --counts
{tmp}/r.jsonl | trace flame --out {tmp}/f.txt {tmp}/r.jsonl | profile run {short} --cprofile |
profile run --churn 10 {short} --trace-out {tmp}/p.jsonl | trace tree {tmp}/p.jsonl"""

_hook = lambda frame, event, arg: event == "call" and _seen.add(frame.f_code)  # noqa: E731
def arm():
    sys.setprofile(_hook), threading.setprofile(_hook)

def _dump():
    sys.setprofile(None)
    hits = {f"{c.co_filename}\t{c.co_firstlineno}" for c in list(_seen)
            if c.co_filename.startswith(str(SRC))}
    (OUT / f"{os.environ['REACH_SET']}-{os.getpid()}.txt").write_text("\n".join(hits))

pytest_runtest_setup = lambda item: arm()  # noqa: E731
def _py(env, *args, check=True, **kw):
    kw.setdefault("stdout", subprocess.DEVNULL)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=check, **kw)

def routes(port):
    """Every HTTP route and three error answers, from a hooked client."""
    from repro.serve.client import ServeClient
    with ServeClient("127.0.0.1", port) as c:
        c.index(), c.status(), c.metrics(), c.metrics_prometheus()
        made = [c.compose("video-on-demand"), c.compose("video-on-demand", "high", 1.0)]
        sid = next(p["session_id"] for p in made if p["admitted"])
        c.sessions(), c.session(sid), c.release(sid), c.session(sid)
        c.slo(), c.traces(), c.trace(made[0]["trace_id"])
        for request in (("DELETE", f"/sessions/{sid}"), ("POST", "/compose", {}), ("GET", "/x")):
            c.request(*request)
    return made[0]["trace_id"]

def _serve(env, tmp, flags, clients):
    log = Path(tmp) / "serve.log"
    with open(log, "w") as out:
        proc = subprocess.Popen([sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                                 *flags.split()], cwd=ROOT, env=env, stdout=out, stderr=out)
    try:
        while "listening on http://" not in log.read_text():
            assert proc.poll() is None, log.read_text()
            time.sleep(0.1)
        port = log.read_text().split("http://")[1].split()[0].rsplit(":", 1)[1]
        trace_id = _py(env, "-c", f"import reach; print(reach.routes({port}))",
                       stdout=subprocess.PIPE, text=True).stdout.split()[-1]
        for args in clients:
            _py(env, "-m", "repro", *args.replace("{trace}", trace_id).split(), "--port", port)
    finally:
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=120)

def production(env, tmp):
    faulted = f"--rate 50 --horizon 20 --churn 25 --faults {PLAN}"
    for line in COMMANDS.replace("\n", " ").split(" | "):
        _py(env, "-m", "repro", *line.format(short="--rate 20 --horizon 3", tmp=tmp,
                                             faulted=faulted).split())
    _py(dict(env, REPRO_PAPER_SCALE="1"), "-m", "repro", *"run --rate 100 --horizon 1".split())
    from repro.experiments.config import SCENARIOS
    closed = "loadgen -n 40 --concurrency 2"
    for flags in [f"--scenario {s}" for s in SCENARIOS] + ["--algorithm random --tick 0.5"]:
        _serve(env, tmp, flags, [closed])
    _serve(env, tmp, "--wall-clock", [closed, "top --iterations 1"])
    _serve(env, tmp, f"--scenario churn --faults {PLAN} --telemetry {tmp}/serve.jsonl", [
        closed, "loadgen --mode open --rate 40 -n 40", "top --iterations 2 --interval 0.2",
        f"loadgen --soak --duration 3 --rate 20 --sample-interval 1 --json-out {tmp}/s.json",
        "trace request {trace}", "trace request --json {trace}"])
    for example in sorted((ROOT / "examples").glob("*.py")):
        _py(env, str(example))
    _py(env, "bench/run.py", "--workload", "steady-paper", "--seconds", "0")  # full size
    for run in ("steady-paper 0", "churn-paper 0", "churn-paper 1", "compose-cold 0",
                "serve-mixed 0"):
        _py(env, "bench/run.py", "--smoke", "--seconds", "0", *"--workload {} --trace {}"
            .format(*run.split()).split())

def definitions():
    """``(file, first line) -> (name, lines, enclosing definition)`` in ``src/repro``."""
    defs = {}
    def visit(node, path, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[path, start] = (prefix + child.name, child.end_lineno - start + 1, parent)
                visit(child, path, f"{prefix}{child.name}.", (path, start))
            else:
                visit(child, path, prefix + (f"{child.name}." if isinstance(
                    child, ast.ClassDef) else ""), parent)
    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "", None)
    return defs

def report():
    reached = {s: {(f, int(n)) for p in OUT.glob(f"{s}-*.txt")
                   for f, n in (ln.split("\t") for ln in p.read_text().splitlines())}
               for s in SETS}
    defs = definitions()
    hit = {k: {s for s in SETS if k in reached[s]} for k in defs}
    classes = {k: [] for k in ("unreached", "tests only", "benchmarks only",
                               "benchmarks and tests")}
    for key, (name, lines, parent) in defs.items():
        if "production" in hit[key] or (parent and "production" not in hit[parent]):
            continue  # production, or counted with its enclosing definition
        label = " and ".join(sorted(hit[key])) or "unreached"
        classes[label if len(hit[key]) != 1 else f"{label} only"].append((key, name, lines))
    print(f"production reached {sum('production' in h for h in hit.values())} of {len(defs)}")
    for label, rows in classes.items():
        print(f"\n{label}: {len(rows)} definitions, {sum(r[2] for r in rows)} lines")
        for (path, line), name, lines in rows:
            print(f"  {Path(path).relative_to(SRC)}:{line}  {name}  ({lines})")

def main(argv):
    OUT.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        site = Path(sysconfig.get_path("purelib", f"{os.name}_user", vars={"userbase": tmp}))
        os.makedirs(site), (site / "usercustomize.py").write_text(
            "import atexit, os, sys\nif os.environ.get('REACH_SET'):\n"
            f"    sys.path.append({str(ROOT / 'scripts')!r})\n"
            "    import reach\n    reach.arm()\n    atexit.register(reach._dump)\n")
        for name in argv or SETS:
            [old.unlink() for old in OUT.glob(f"{name}-*.txt")]
            env = {k: v for k, v in os.environ.items() if k != "REPRO_PAPER_SCALE"}
            env.update(PYTHONUSERBASE=tmp, REACH_SET=name, PYTHONPATH="src")
            production(env, tmp) if name == "production" else _py(
                env, "-m", "pytest", f"{name}/", "-q", "-p", "reach", check=False, stdout=None,
                *(["--benchmark-disable"] if name == "benchmarks" else []))
    report()

if __name__ == "__main__":
    main(sys.argv[1:])

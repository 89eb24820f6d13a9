"""Repository invariants, checked on the AST of every source file: seeded
runs stay bit-deterministic and the telemetry catalog names exactly what the
code emits.  An allowlist must equal the set of modules that need it, so a
stale entry fails too.  Hash order that crosses modules is checked on output
bytes by ``tests/sim/test_hash_seed_differential.py``."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

import pytest

from repro.telemetry.catalog import EVENT_CATALOG, METRIC_CATALOG, SLO_CATALOG, SPAN_CATALOG

REPO = Path(__file__).resolve().parents[2]

#: Modules that may read the wall clock, and why it never reaches a seeded output.
CLOCK_READERS = {
    "src/repro/cli.py": "`repro sanitize overhead` times whole runs",
    "src/repro/experiments/runner.py": "display-only wall_seconds",
    "src/repro/serve/client.py": "socket readiness deadline",
    "src/repro/serve/core.py": "wall-clock serving mode",
    "src/repro/serve/loadgen.py": "client-side RTT and soak windows",
    "src/repro/telemetry/profiling.py": "the profiling layer",
    "src/repro/telemetry/spans.py": "span wall time, fed to profiling",
    "tests/test_paper_scale.py": "throughput budget check",
}
#: The one module that builds generators: every draw is from a seeded stream.
RNG_OWNERS = {"src/repro/sim/rng.py": "RngStreams"}
#: Packages whose iteration order reaches only reports.
ORDER_EXEMPT = ("src/repro/telemetry/", "src/repro/experiments/")
#: The one module that writes a peer ledger: every reservation rule lives there once.
LEDGER_WRITERS = {"src/repro/network/soa.py": "SoAPeerDirectory's ledger rules"}
LEDGERS = {"available", "avail_up", "avail_down"}

CLOCK_CALLS = {f"time.{f}{ns}" for ns in ("", "_ns") for f in (
    "time", "perf_counter", "monotonic", "process_time", "clock_gettime")} | {
    f"datetime.{c}.{f}" for c in ("datetime", "date") for f in ("now", "utcnow", "today")}
SET_METHODS = {"intersection", "union", "difference", "symmetric_difference"}
SET_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
CATALOGS = {"event": set(EVENT_CATALOG), "span": set(SPAN_CATALOG), "slo": set(SLO_CATALOG),
            "window": {n for n, (kind, *_) in METRIC_CATALOG.items() if kind == "window"}}
#: Call-site shape -> the catalog that the call's literal name belongs to.
SITE_KINDS = {("Objective",): "slo", ("emit_event",): "event",
              ("bus", "emit"): "event", ("_bus", "emit"): "event",
              ("tracer", "span"): "span", ("tracer", "open"): "span",
              ("windows", "track"): "window", ("_windows", "track"): "window"}


def _chain(node: ast.AST) -> Tuple[str, ...]:
    """``self.bus.emit`` -> ("self", "bus", "emit"); () if not a name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else ()


class Parsed(NamedTuple):
    nodes: List[ast.AST]
    imports: List[Tuple[int, str, str]]  # (line, local name, dotted name bound)
    callees: List[Tuple[int, str]]  # (line, dotted callee) resolved by import


def parse(source: str) -> Parsed:
    nodes = list(ast.walk(ast.parse(source)))
    imports = []
    for n in (n for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))):
        for a in n.names:
            head = a.name.split(".")[0]
            imports.append((n.lineno, a.asname or head, a.name if a.asname else head)
                           if isinstance(n, ast.Import) else
                           (n.lineno, a.asname or a.name, f"{n.module}.{a.name}"))
    bound = {local: dotted for _line, local, dotted in imports}
    chains = [(n.lineno, _chain(n.func)) for n in nodes if isinstance(n, ast.Call)]
    return Parsed(nodes, imports, [(line, ".".join((bound[c[0]], *c[1:])))
                                   for line, c in chains if c and c[0] in bound])


def clock_reads(mod: Parsed) -> List[int]:
    return [line for line, callee in mod.callees if callee in CLOCK_CALLS]


def rng_uses(mod: Parsed) -> List[int]:
    imported = [line for line, _, name in mod.imports if name.split(".")[0] == "random"]
    return imported + [line for line, f in mod.callees if f.startswith("numpy.random.")]


def _unordered(node: ast.AST) -> bool:
    f = node.func if isinstance(node, ast.Call) else None
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(f, ast.Name) and f.id in ("set", "frozenset")) or (
        isinstance(f, ast.Attribute) and (f.attr in SET_METHODS or (
            f.attr == "keys" and not node.args))) or (
        isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPS)
        and (_unordered(node.left) or _unordered(node.right)))


def unordered_loops(mod: Parsed) -> List[int]:
    return [n.iter.lineno for n in mod.nodes if isinstance(
        n, (ast.For, ast.AsyncFor, ast.comprehension)) and _unordered(n.iter)]


def telemetry_sites(mod: Parsed) -> List[Tuple[str, str, int]]:
    """``(kind, name, line)`` of every call that names telemetry literally."""
    out = []
    for node in (n for n in mod.nodes if isinstance(n, ast.Call)):
        chain = _chain(node.func)
        kind = SITE_KINDS.get(chain[-1:]) or SITE_KINDS.get(chain[-2:])
        args = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "name")]
        names = [a.value for a in args if isinstance(a, ast.Constant)]
        if kind and names and isinstance(names[0], str):
            out.append((kind, names[0], node.lineno))
    return out


def _ledger(node: ast.AST, aliases: frozenset = frozenset()) -> bool:
    """``<x>.available`` / ``.avail_up`` / ``.avail_down``, a name in ``aliases``,
    or a subscript of either."""
    node = node.value if isinstance(node, ast.Subscript) else node
    return (isinstance(node, ast.Attribute) and node.attr in LEDGERS) or (
        isinstance(node, ast.Name) and node.id in aliases)


def _bindings(target: ast.AST, value: ast.AST):
    """``(name, expression)`` pairs one binding makes, unpacked through tuples."""
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, ast.Tuple) and isinstance(value, (ast.Tuple, ast.List)):
        for t, v in zip(target.elts, value.elts):
            yield from _bindings(t, v)


def ledger_writes(mod: Parsed) -> List[int]:
    """Subscript assignments and augmented assignments into a ledger, directly or
    through a name bound from one (by ``=`` or a ``for`` over a tuple of them),
    and ``out=`` keywords that name one."""
    bound = [(t, n.value) for n in mod.nodes if isinstance(n, ast.Assign) for t in n.targets]
    bound += [(n.target, v) for n in mod.nodes if isinstance(n, ast.For)
              and isinstance(n.iter, (ast.Tuple, ast.List)) for v in n.iter.elts]
    aliases = frozenset(name for t, v in bound for name, e in _bindings(t, v) if _ledger(e))
    targets = [t for t, _ in bound if not isinstance(t, ast.Name)]
    targets += [e for t in targets if isinstance(t, ast.Tuple) for e in t.elts]
    augmented = [n.target for n in mod.nodes if isinstance(n, ast.AugAssign)]
    outs = [k.value for n in mod.nodes if isinstance(n, ast.Call)
            for k in n.keywords if k.arg == "out"]
    return [t.lineno for t in targets + augmented if isinstance(t, ast.Subscript)
            and _ledger(t.value, aliases)] + [
        t.lineno for t in augmented if isinstance(t, ast.Name) and t.id in aliases] + [
        o.lineno for o in outs if _ledger(o, aliases)]


def uncatalogued(mod: Parsed) -> List[int]:
    return [line for kind, name, line in telemetry_sites(mod) if name not in CATALOGS[kind]]


def dead_entries(used: set) -> List[Tuple[str, str]]:
    return sorted((kind, name) for kind, names in CATALOGS.items()
                  for name in names if (kind, name) not in used)


def scan(tree, detect: Callable, scope: tuple, exempt: tuple = ()) -> Dict[str, List[int]]:
    return {rel: lines for rel, mod in tree.items() if rel.startswith(scope)
            and not rel.startswith(exempt) and (lines := sorted(detect(mod)))}


def unlisted_and_stale(found: dict, allowed: dict) -> Tuple[List[str], List[str]]:
    return sorted(set(found) - set(allowed)), sorted(set(allowed) - set(found))


@pytest.fixture(scope="module")
def tree() -> Dict[str, Parsed]:
    """Every module of ``src/repro`` and ``tests``, parsed once."""
    files = sorted([*(REPO / "src/repro").rglob("*.py"), *(REPO / "tests").rglob("*.py")])
    return {p.relative_to(REPO).as_posix(): parse(p.read_text(encoding="utf-8")) for p in files}


CHECKS = {  # id -> (detector, scope, exempt packages, the modules allowed to hit)
    "wall-clock": (clock_reads, ("src/", "tests/"), (), CLOCK_READERS),
    "randomness": (rng_uses, ("src/",), (), RNG_OWNERS),
    "unordered-iteration": (unordered_loops, ("src/",), ORDER_EXEMPT, {}),
    "uncatalogued-name": (uncatalogued, ("src/",), (), {}),
    "ledger-write": (ledger_writes, ("src/",), (), LEDGER_WRITERS),
}


@pytest.mark.parametrize("detect, scope, exempt, allowed", CHECKS.values(), ids=CHECKS)
def test_hits_only_in_listed_modules(tree, detect, scope, exempt, allowed):
    found = scan(tree, detect, scope, exempt)
    assert unlisted_and_stale(found, allowed) == ([], []), found


def test_every_catalogued_name_has_a_site(tree):
    used = {(kind, name) for rel, mod in tree.items() if rel.startswith("src/")
            for kind, name, _line in telemetry_sites(mod)}
    assert all(CATALOGS.values()) and dead_entries(used) == []


@pytest.mark.parametrize("entry", [("event", "lookup.done"), ("span", "lookup.hosts"), (
    "slo", "slo.psi"), ("window", "serve.window.admits")], ids=lambda e: e[0])
def test_catalog_entry_without_a_site_is_dead(entry):
    every = {(kind, name) for kind, names in CATALOGS.items() for name in names}
    assert dead_entries(every - {entry}) == [entry]


def test_listed_module_without_a_clock_read_is_stale():
    # time.sleep waits on the clock but reads nothing from it.
    tree = {"src/repro/cli.py": parse("import time as t\nt0 = t.perf_counter()\n"),
            "src/repro/serve/top.py": parse("import time\ntime.sleep(1)\n")}
    found = scan(tree, clock_reads, ("src/",))
    assert unlisted_and_stale(found, dict.fromkeys(tree)) == ([], ["src/repro/serve/top.py"])


CASES = {  # id -> (detector, source, expected hits)
    "time.time": (clock_reads, "import time\nt = time.time()\n", 1),
    "from-import-alias": (clock_reads, "from time import perf_counter as pc\nt = pc()\n", 1),
    "datetime.now": (clock_reads, "from datetime import datetime\nd = datetime.now()\n", 1),
    "sim-clock": (clock_reads, "def f(sim):\n    return sim.now\n", 0),
    "numpy-rng": (rng_uses, "import numpy as np\nr = np.random.default_rng(0)\n", 1),
    "stdlib-random": (rng_uses, "import random\n", 1),
    "streamed-rng": (rng_uses, "def f(rngs):\n    return rngs.stream('c').random()\n", 0),
    "set-loop": (unordered_loops, "def f(xs):\n    for x in set(xs):\n        yield x\n", 1),
    "keys-view": (unordered_loops, "def f(d):\n    return [k for k in d.keys()]\n", 1),
    "sorted-set": (unordered_loops, "def f(xs):\n    return [*sorted(set(xs))]\n", 0),
    "unknown-event": (uncatalogued, "bus.emit('no.such.event', x=1)", 1),
    "unknown-span": (uncatalogued, "tracer.span('no.such.span')", 1),
    "unknown-slo": (uncatalogued, "Objective(name='slo.no_such', target=0.5)", 1),
    "unknown-window": (uncatalogued, "windows.track('serve.window.no_such')", 1),
    "cumulative-tracked": (uncatalogued, "windows.track('qcs.compositions')", 1),
    "event": (uncatalogued, "bus.emit('lookup.done', hops=2)", 0),
    "slo": (uncatalogued, "Objective(name='slo.psi', target=0.85)", 0),
    "window": (uncatalogued, "windows.track('serve.window.requests')", 0),
    "ledger-debit": (ledger_writes, "def f(s, r, b):\n    s.avail_up[r] -= b\n", 1),
    "ledger-block": (ledger_writes, "def f(s, r):\n    x, s.available[r] = 0, 1\n", 1),
    "ledger-read": (ledger_writes, "def f(s, r):\n    s.snap_up[r] = s.avail_up[r]\n", 0),
    "ledger-alias": (ledger_writes, "def f(s, r, q):\n    avail = s.available[r]\n"
                     "    avail -= q\n", 1),
    "ledger-loop": (ledger_writes, "def f(s, a):\n    for res, row in ((s.avail_up, a),):\n"
                    "        res[row] = 0\n", 1),
    "ledger-out": (ledger_writes, "def f(np, s, r, x, q):\n"
                   "    np.subtract(x, q, out=s.available[r])\n", 1),
    "ledger-alias-read": (ledger_writes, "def f(s, r, q):\n    avail = s.available[r]\n"
                          "    return (avail >= q).all()\n", 0),
}


@pytest.mark.parametrize("detect, source, hits", CASES.values(), ids=CASES)
def test_detector(detect, source, hits):
    assert len(detect(parse(source))) == hits

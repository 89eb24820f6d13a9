"""The runtime determinism sanitizer: draw ledgers and write barriers.

The AST checks of ``tests/analysis/test_invariants.py`` keep wall
clocks, un-streamed draws and set iteration out of each module; this
module proves each *run* actually behaved: it records, in order,

* **draws** -- every method call on every seeded stream handed out by
  :class:`repro.sim.rng.RngStreams`, counted per stream, with periodic
  bit-generator state hashes checkpointed on sim-clock epochs, and
* **writes** -- every membership/ledger mutation crossing the
  write-barrier hooks (peer create/depart, session admit/release/
  repair), stamped with ``(plane, op, sim_time, membership generation)``
  provenance,

into one ordered ledger exported as canonical JSONL.  Two runs are
behaviourally identical iff their ledgers are byte-identical;
:func:`compare_ledgers` names the first divergent record (and, inside
an epoch record, the first divergent stream) so a cross-implementation
regression points at the plane that drifted.

The ledger is the repo's cross-module determinism check.  The
hash-seed differential (``tests/sim/test_hash_seed_differential.py``)
makes one seeded run under two ``PYTHONHASHSEED`` values and requires
byte-identical ledgers and telemetry exports, so hash order that
reaches any output is caught wherever it crosses a module.  The
production prober and the scalar reference prober of
``tests/probing/reference_prober.py`` are held to the same ledger
(``tests/sim/test_sanitizer.py``).

Design constraints, in order:

1. **Zero footprint when off.**  Nothing here is imported or called
   unless ``GridConfig.sanitize`` is set; streams stay raw generators.
2. **No feedback into the run.**  The sanitizer never emits telemetry,
   never draws randomness, never reads the wall clock; checkpoints are
   *lazy* (taken at the first draw/write past an epoch boundary), so
   the event heap and every downstream draw are untouched and the
   telemetry export stays byte-identical sanitize-on vs sanitize-off.
3. **Canonical bytes.**  Records serialise with sorted keys and fixed
   separators; equal behaviour means equal bytes, so ``diff``/``cmp``
   on two ledgers is already a valid (if less helpful) comparator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, cast

import numpy as np

__all__ = [
    "LEDGER_VERSION",
    "LedgeredStream",
    "Sanitizer",
    "CompareVerdict",
    "compare_ledgers",
    "compare_ledger_files",
]

#: Ledger schema version; bump on any record-shape change.
LEDGER_VERSION = 1

#: Generator attributes returned unwrapped: non-drawing surfaces and the
#: state accessor the sanitizer itself hashes.
_PASSTHROUGH = frozenset({"bit_generator", "spawn"})


def _state_hash(gen: np.random.Generator) -> str:
    """Stable 64-bit hex digest of a generator's bit-generator state."""
    blob = json.dumps(
        gen.bit_generator.state, sort_keys=True, separators=(",", ":"),
        default=int,
    )
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


class LedgeredStream:
    """A counting proxy over one :class:`numpy.random.Generator`.

    Every public method call is reported to the sanitizer *before* it
    executes (so an epoch checkpoint hashes the pre-draw state), then
    forwarded unchanged.  One vectorized call counts as one draw event:
    size divergence still shows up in the next state hash.
    """

    def __init__(self, name: str, gen: np.random.Generator,
                 sanitizer: "Sanitizer") -> None:
        self._name = name
        self._gen = gen
        self._sanitizer = sanitizer

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._gen, attr)
        if attr.startswith("_") or attr in _PASSTHROUGH \
                or not callable(value):
            return value
        name = self._name
        note_draw = self._sanitizer.note_draw

        def counted(*args: Any, **kwargs: Any) -> Any:
            note_draw(name)
            return value(*args, **kwargs)

        # Cache the wrapper so repeated lookups skip __getattr__.
        self.__dict__[attr] = counted
        return counted

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LedgeredStream({self._name!r}, {self._gen!r})"


class Sanitizer:
    """Collects the ordered draw/write ledger for one seeded run."""

    def __init__(self, clock: Callable[[], float],
                 epoch: float = 5.0) -> None:
        if epoch <= 0:
            raise ValueError(f"epoch must be positive, got {epoch}")
        #: Sim-clock reader (``lambda: sim.now``); never the wall clock.
        self._clock = clock
        #: Sim-time width of one checkpoint epoch.
        self.epoch = float(epoch)
        self._gens: Dict[str, np.random.Generator] = {}
        self._draws: Dict[str, int] = {}
        self._records: List[Dict[str, Any]] = []
        #: Sim time at which the next checkpoint is due.  Initialized so
        #: the very first draw/write checkpoints the pristine streams;
        #: thereafter one float compare per draw is the entire epoch
        #: bookkeeping (the overhead budget in EXPERIMENTS.md E10 is
        #: <10%, and the draw hook is the only per-event cost).
        self._next_boundary = -math.inf
        self._finalized = False
        self.n_writes = 0

    # -- run lifecycle -----------------------------------------------------
    def begin(self, seed: int) -> None:
        """Open the ledger with the run's identity record.

        Deliberately excludes anything equivalence classes of runs are
        *allowed* to differ in (which implementation of a plane ran):
        the compare contract is that those produce byte-identical
        ledgers, so they must not appear in the bytes.
        """
        self._records.append({
            "kind": "meta",
            "version": LEDGER_VERSION,
            "seed": int(seed),
            "epoch": self.epoch,
        })

    def wrap_stream(self, name: str,
                    gen: np.random.Generator) -> np.random.Generator:
        """Register ``gen`` under ``name`` and return the counting proxy.

        The proxy quacks like the generator for every drawing method;
        the cast reflects that behavioural (not nominal) subtyping.
        """
        if name in self._gens:
            raise ValueError(f"stream {name!r} already wrapped")
        self._gens[name] = gen
        self._draws[name] = 0
        return cast(np.random.Generator, LedgeredStream(name, gen, self))

    # -- ledger hooks ------------------------------------------------------
    def note_draw(self, name: str) -> None:
        """One drawing method call on stream ``name`` (pre-draw)."""
        now = self._clock()
        if now >= self._next_boundary:
            self._checkpoint(now)
        self._draws[name] += 1

    def note_write(self, plane: str, op: str, gen: int, n: int = 1) -> None:
        """One barrier-crossing mutation: ``(plane, op)`` at generation
        ``gen`` (the owning directory's membership generation)."""
        now = self._clock()
        if now >= self._next_boundary:
            self._checkpoint(now)
        self.n_writes += 1
        self._records.append({
            "kind": "write",
            "plane": plane,
            "op": op,
            "t": now,
            "gen": int(gen),
            "n": int(n),
        })

    # -- checkpoints -------------------------------------------------------
    def _snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: {"draws": self._draws[name],
                   "state": _state_hash(self._gens[name])}
            for name in sorted(self._gens)
        }

    def _checkpoint(self, now: float) -> None:
        epoch = math.floor(now / self.epoch) * self.epoch
        self._next_boundary = epoch + self.epoch
        self._records.append({
            "kind": "epoch",
            "t": epoch,
            "streams": self._snapshot(),
        })

    def finalize(self) -> None:
        """Close the ledger with the end-of-run totals (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        self._records.append({
            "kind": "final",
            "t": self._clock(),
            "streams": self._snapshot(),
            "writes": self.n_writes,
        })

    # -- export ------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self._records)

    def render_lines(self) -> List[str]:
        """The canonical JSONL lines (finalizes the ledger)."""
        self.finalize()
        return [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self._records
        ]

    def export_jsonl(self, path: str) -> int:
        """Write the canonical ledger; returns the record count."""
        lines = self.render_lines()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        return len(lines)


# -- comparison ------------------------------------------------------------

@dataclass(frozen=True)
class CompareVerdict:
    """The outcome of one ledger comparison."""

    identical: bool
    #: 1-based line number of the first divergence (None when identical).
    line: Optional[int]
    #: Human-readable description of the first divergence.
    reason: str

    def render(self) -> str:
        if self.identical:
            return "ledgers identical"
        return f"ledgers diverge at record {self.line}: {self.reason}"


def _describe_divergence(line_a: str, line_b: str) -> str:
    try:
        rec_a = json.loads(line_a)
        rec_b = json.loads(line_b)
    except ValueError:
        return f"unparseable record ({line_a[:60]!r} vs {line_b[:60]!r})"
    kind_a, kind_b = rec_a.get("kind"), rec_b.get("kind")
    if kind_a != kind_b:
        return (f"record kinds differ: {kind_a!r} vs {kind_b!r} "
                f"(the runs took different paths)")
    if kind_a in ("epoch", "final"):
        streams_a = rec_a.get("streams", {})
        streams_b = rec_b.get("streams", {})
        for name in sorted(set(streams_a) | set(streams_b)):
            entry_a = streams_a.get(name)
            entry_b = streams_b.get(name)
            if entry_a == entry_b:
                continue
            if entry_a is None or entry_b is None:
                return (f"stream {name!r} exists in only one run "
                        f"at t={rec_a.get('t')}")
            if entry_a.get("draws") != entry_b.get("draws"):
                return (f"stream {name!r} diverges at t={rec_a.get('t')}: "
                        f"{entry_a.get('draws')} draws vs "
                        f"{entry_b.get('draws')}")
            return (f"stream {name!r} diverges at t={rec_a.get('t')}: "
                    f"equal draw counts ({entry_a.get('draws')}) but "
                    f"different generator states "
                    f"({entry_a.get('state')} vs {entry_b.get('state')})")
        return f"epoch records differ at t={rec_a.get('t')} vs {rec_b.get('t')}"
    if kind_a == "write":
        fields = [k for k in sorted(set(rec_a) | set(rec_b))
                  if rec_a.get(k) != rec_b.get(k)]
        detail = ", ".join(
            f"{k}={rec_a.get(k)!r} vs {rec_b.get(k)!r}" for k in fields
        )
        return (f"write records differ ({detail}) -- "
                f"plane {rec_a.get('plane')!r} op {rec_a.get('op')!r}")
    if kind_a == "meta":
        fields = [k for k in sorted(set(rec_a) | set(rec_b))
                  if rec_a.get(k) != rec_b.get(k)]
        return "meta records differ: " + ", ".join(
            f"{k}={rec_a.get(k)!r} vs {rec_b.get(k)!r}" for k in fields
        )
    return f"records differ: {line_a[:60]!r} vs {line_b[:60]!r}"


def compare_ledgers(lines_a: Iterable[str],
                    lines_b: Iterable[str]) -> CompareVerdict:
    """First-divergence comparison of two canonical ledgers."""
    a = [ln.rstrip("\n") for ln in lines_a if ln.strip()]
    b = [ln.rstrip("\n") for ln in lines_b if ln.strip()]
    for idx, (line_a, line_b) in enumerate(zip(a, b), start=1):
        if line_a != line_b:
            return CompareVerdict(
                identical=False, line=idx,
                reason=_describe_divergence(line_a, line_b),
            )
    if len(a) != len(b):
        short, long_ = ("A", "B") if len(a) < len(b) else ("B", "A")
        return CompareVerdict(
            identical=False, line=min(len(a), len(b)) + 1,
            reason=(f"ledger {short} ends after {min(len(a), len(b))} "
                    f"records; {long_} has {max(len(a), len(b))}"),
        )
    if not a:
        raise ValueError("both ledgers are empty")
    return CompareVerdict(identical=True, line=None, reason="")


def compare_ledger_files(path_a: str, path_b: str) -> CompareVerdict:
    """File-level :func:`compare_ledgers` (the CLI's backend)."""
    with open(path_a, "r", encoding="utf-8") as handle:
        lines_a = handle.readlines()
    with open(path_b, "r", encoding="utf-8") as handle:
        lines_b = handle.readlines()
    return compare_ledgers(lines_a, lines_b)

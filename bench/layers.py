"""External layer tracing: timing wrappers installed from the bench side.

Nothing under ``src/`` knows about this module.  A traced pass replaces
public bound methods on the *live* grid objects (``registry.discover_hosts``,
``aggregator.compose``, ``ledger.admit`` ...) with wrappers that record one
span per call -- ``{name, start, end, parent, request_id}`` -- into an
in-memory list.  A layer's self time is its spans' duration minus the part
covered by child spans, so the layers plus the untraced residue
(``sim.self_s``) add up to the traced run time by construction.

The three construction-time phases (peer spawn loop, catalog generation,
ring join loop) happen inside ``P2PGrid.__init__`` before any instance
exists, so :func:`timed_build` times them by patching the class/module
attribute for the duration of the build only.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(owner attribute path on the grid/aggregator, method, span name)``.
#: The path is resolved against ``{"grid": grid, "aggregator": aggregator}``.
RUNTIME_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("aggregator", "aggregate", "core.aggregation"),
    ("aggregator.compiler", "compile", "services.compile"),
    ("grid.registry", "discover_path_candidates", "lookup.candidates"),
    ("grid.registry", "discover_hosts", "lookup.hosts"),
    ("grid.registry", "peer_joined", "lookup.membership"),
    ("grid.registry", "peer_departed", "lookup.membership"),
    ("aggregator", "compose", "core.composition"),
    ("aggregator", "select_peers", "core.selection.walk"),
    ("aggregator.selector", "select_hop", "core.selection.hop"),
    ("grid.probing", "resolve_selection_hops", "probing.resolve"),
    ("grid.probing", "drop_peer", "probing.drop_peer"),
    ("grid.ledger", "admit", "sessions.admit"),
    ("grid.ledger", "fail_peer", "sessions.fail_peer"),
    ("grid.catalog", "assign_new_peer", "services.catalog.membership"),
    ("grid.catalog", "remove_peer", "services.catalog.membership"),
    ("grid.directory", "create_peer", "network.directory.membership"),
    ("grid.directory", "depart", "network.directory.membership"),
)


class SpanRecorder:
    """In-memory span list with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, request id or None]``
        self.spans: List[List[Any]] = []
        self._stack: List[int] = [-1]
        self.request_id: Optional[int] = None
        #: ``V`` per composed layer, summed over compose calls.
        self.candidate_layers = 0
        self.candidate_total = 0
        self.sim_events = 0

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1], self.request_id]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return timed

    def install(self, grid: Any, aggregator: Any) -> None:
        """Replace the :data:`RUNTIME_SPANS` methods on the live objects."""
        roots = {"grid": grid, "aggregator": aggregator}
        for path, method, name in RUNTIME_SPANS:
            head, *rest = path.split(".")
            owner = roots[head]
            for attr in rest:
                owner = getattr(owner, attr)
            setattr(owner, method, self.wrap(getattr(owner, method), name))

        # request_id: every span below one aggregate() shares the id.
        aggregate = aggregator.aggregate

        def aggregate_with_id(request: Any) -> Any:
            self.request_id = request.request_id
            try:
                return aggregate(request)
            finally:
                self.request_id = None

        aggregator.aggregate = aggregate_with_id

        # V, the candidate count the O(K.V^2) claim is read against.
        compose = aggregator.compose

        def compose_counting(path: Any, candidates: Any, *rest: Any) -> Any:
            self.candidate_layers += len(candidates)
            self.candidate_total += sum(len(c) for c in candidates.values())
            return compose(path, candidates, *rest)

        aggregator.compose = compose_counting

        # Simulator.run() dispatches through self.step(), so an instance
        # attribute counts events without re-implementing run(until).
        step = grid.sim.step

        def counting_step() -> None:
            self.sim_events += 1
            step()

        grid.sim.step = counting_step

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (span minus its children)."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _p, _r), covered in zip(self.spans, children):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _p, _r in self.spans if n == name]

    def covered(self) -> float:
        """Seconds inside any span (the sum of the root spans)."""
        return sum(end - start for _n, start, end, parent, _r in self.spans
                   if parent < 0)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None,
                    "request_id": rid,
                }) + "\n")


@contextmanager
def timed_build() -> Iterator[Dict[str, float]]:
    """Time the three construction phases of ``P2PGrid.__init__``.

    Yields a dict filled with ``network.directory.build_s``,
    ``services.catalog.build_s`` and ``lookup.ring_build_s`` (summed call
    durations).  The class/module attributes are restored on exit, before
    any request runs.
    """
    import repro.grid as grid_module
    from repro.lookup.chord import ChordRing
    from repro.network.soa import SoAPeerDirectory

    totals = {
        "network.directory.build_s": 0.0,
        "services.catalog.build_s": 0.0,
        "lookup.ring_build_s": 0.0,
    }

    def accumulate(fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[key] += perf_counter() - t0

        return timed

    patches = (
        (SoAPeerDirectory, "create_peer", "network.directory.build_s"),
        (grid_module, "generate_catalog", "services.catalog.build_s"),
        (ChordRing, "join", "lookup.ring_build_s"),
    )
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, key in patches:
        setattr(owner, attr, accumulate(getattr(owner, attr), key))
    try:
        yield totals
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

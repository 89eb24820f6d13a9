"""Gnutella-style TTL-bounded flooding lookup (the pre-DHT baseline).

The paper motivates structured lookup (Chord/CAN) by the scalability
problems of flooding systems like Gnutella [1].  This test-side module
provides the flooding alternative so the lookup-cost comparison can be
*measured* (``benchmarks/bench_chord_lookup.py``, claim C3); the library
itself never floods.  It is an unstructured random-regular
overlay where a query spreads breadth-first to all neighbors until the
TTL expires, counting every forwarded message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

__all__ = ["FloodingOverlay", "FloodResult"]


@dataclass(frozen=True)
class FloodResult:
    """Outcome of one flood query."""

    found: Tuple[int, ...]   # peers holding the requested record
    messages: int            # total query messages forwarded
    rounds: int              # BFS depth actually explored


class FloodingOverlay:
    """An unstructured overlay with approximately uniform degree.

    Edges are built by giving every peer ``degree`` random links
    (deduplicated, undirected), the standard Gnutella-like topology
    approximation.
    """

    def __init__(
        self,
        peer_ids: Sequence[int],
        degree: int,
        rng: np.random.Generator,
    ) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        ids = list(peer_ids)
        if len(ids) < 2:
            raise ValueError("overlay needs at least two peers")
        self.degree = degree
        self.adj: Dict[int, Set[int]] = {pid: set() for pid in ids}
        n = len(ids)
        for i, pid in enumerate(ids):
            picks = rng.integers(0, n, size=degree)
            for j in picks:
                other = ids[int(j)]
                if other != pid:
                    self.adj[pid].add(other)
                    self.adj[other].add(pid)

    def add_peer(self, peer_id: int, rng: np.random.Generator) -> None:
        """A joining peer wires itself to ``degree`` random members."""
        if peer_id in self.adj:
            raise ValueError(f"peer {peer_id} already in overlay")
        members = list(self.adj)
        self.adj[peer_id] = set()
        picks = rng.choice(len(members), size=min(self.degree, len(members)),
                           replace=False)
        for j in picks:
            other = members[int(j)]
            self.adj[peer_id].add(other)
            self.adj[other].add(peer_id)

    def remove_peer(self, peer_id: int) -> None:
        for other in self.adj.pop(peer_id, set()):
            self.adj[other].discard(peer_id)

    def flood(
        self,
        start: int,
        has_record: Callable[[int], bool],
        ttl: int,
        stop_at: int | None = None,
        drop: Callable[[int, int], bool] | None = None,
    ) -> FloodResult:
        """BFS flood from ``start``; every forwarded edge costs a message.

        ``has_record(peer)`` tells whether a peer can answer the query.
        ``stop_at`` optionally ends the flood once that many providers
        have been found (pure Gnutella floods to full TTL regardless; the
        early-stop variant models response-bounded querying).
        ``drop(src, dst)`` optionally loses individual query copies in
        flight (fault injection): a dropped copy is still a sent message,
        but the receiver never processes it -- it may still be reached
        through another edge.
        """
        if start not in self.adj:
            raise KeyError(f"peer {start} not in overlay")
        found: List[int] = []
        if has_record(start):
            found.append(start)
        visited = {start}
        frontier = [start]
        messages = 0
        rounds = 0
        for _ in range(ttl):
            if not frontier:
                break
            if stop_at is not None and len(found) >= stop_at:
                break
            rounds += 1
            nxt: List[int] = []
            for node in frontier:
                for nb in self.adj[node]:
                    messages += 1  # each forwarded copy is a message
                    if nb in visited:
                        continue
                    if drop is not None and drop(node, nb):
                        continue  # copy lost; nb stays reachable elsewhere
                    visited.add(nb)
                    if has_record(nb):
                        found.append(nb)
                    nxt.append(nb)
            frontier = nxt
        return FloodResult(tuple(found), messages, rounds)

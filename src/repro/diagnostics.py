"""Grid-wide invariant checking.

``check_grid_invariants(grid)`` sweeps every subsystem for consistency
violations and returns a list of human-readable findings (empty = clean).
The integration tests run it after churny workloads; it is also a
first-stop debugging tool for anyone extending the library::

    problems = check_grid_invariants(grid)
    assert not problems, "\\n".join(problems)

Checked invariants
------------------
* resource books: ``0 <= available <= capacity`` per peer (within float
  tolerance), access-link residuals within ``[0, access_bw]``;
* session ledger: every active session's peers are alive; the
  peer -> sessions index matches the sessions' peer sets;
* catalog: ``replicas`` and ``hosted_by`` are mutual inverses, and no
  departed peer hosts anything;
* registry/DHT: every instance record matches the catalog's host set;
  every alive peer is a DHT member and vice versa.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.grid import P2PGrid

__all__ = ["check_grid_invariants"]

_TOL = 1e-6


def _check_peers(grid: P2PGrid, problems: List[str]) -> None:
    for peer in grid.directory.alive_peers():
        if np.any(peer.available.values < -_TOL):
            problems.append(
                f"peer {peer.peer_id}: negative availability "
                f"{peer.available.values}"
            )
        if np.any(peer.available.values > peer.capacity.values + _TOL):
            problems.append(
                f"peer {peer.peer_id}: availability exceeds capacity "
                f"({peer.available.values} > {peer.capacity.values})"
            )
        for label, value in (("uplink", peer.avail_up),
                             ("downlink", peer.avail_down)):
            if not -_TOL <= value <= peer.access_bw + _TOL:
                problems.append(
                    f"peer {peer.peer_id}: {label} residual {value} outside "
                    f"[0, {peer.access_bw}]"
                )


def _check_sessions(grid: P2PGrid, problems: List[str]) -> None:
    ledger = grid.ledger
    for session in ledger.active_sessions():
        for pid in session.peers:
            if not grid.directory.is_alive(pid):
                problems.append(
                    f"session {session.session_id}: active on dead peer {pid}"
                )
        for pid in sorted(session.participants | {session.user_peer}):
            if session.session_id not in ledger.sessions_on_peer(pid):
                problems.append(
                    f"session {session.session_id}: missing from peer "
                    f"{pid}'s index"
                )
    for pid in list(getattr(ledger, "_by_peer", {})):
        for sid in ledger.sessions_on_peer(pid):
            session = next(
                (s for s in ledger.active_sessions() if s.session_id == sid),
                None,
            )
            if session is None:
                problems.append(
                    f"peer {pid}: index references inactive session {sid}"
                )
            elif pid not in session.participants | {session.user_peer}:
                problems.append(
                    f"peer {pid}: indexed for session {sid} it is not part of"
                )


def _check_catalog(grid: P2PGrid, problems: List[str]) -> None:
    catalog = grid.catalog
    for iid, peers in catalog.replicas.items():
        for pid in peers:
            if iid not in catalog.hosted_instances(pid):
                problems.append(
                    f"catalog: {iid} lists host {pid} but hosted_by disagrees"
                )
            if not grid.directory.is_alive(pid):
                problems.append(f"catalog: {iid} hosted by dead peer {pid}")
    for pid, iids in catalog.hosted_by.items():
        for iid in iids:
            if pid not in catalog.hosts(iid):
                problems.append(
                    f"catalog: hosted_by says {pid} hosts {iid} but "
                    "replicas disagree"
                )


def _check_registry(grid: P2PGrid, problems: List[str]) -> None:
    catalog = grid.catalog
    alive = set(grid.directory.alive_ids)
    members = set(grid.ring.peers())
    for pid in alive - members:
        problems.append(f"registry: alive peer {pid} missing from the DHT")
    for pid in members - alive:
        problems.append(f"registry: dead peer {pid} still in the DHT")
    if not alive:
        # Churn can empty the population; there is no vantage point to
        # issue lookups from, so report instead of crashing.
        problems.append("registry: no alive peer to run record checks from")
        return
    prefix = grid.registry.INSTANCE_PREFIX
    for iid in catalog.instances:
        record, _ = grid.ring.get(prefix + iid, from_peer=next(iter(alive)))
        expected = catalog.hosts(iid)
        if (record or ()) != expected:
            problems.append(
                f"registry: host record for {iid} is {record}, "
                f"catalog says {expected}"
            )


def check_grid_invariants(grid: P2PGrid, registry: bool = True) -> List[str]:
    """Run every invariant check; returns findings (empty when clean).

    ``registry=False`` skips the record-by-record DHT audit (it routes
    one lookup per instance, which is the slow part on big catalogs).
    """
    problems: List[str] = []
    _check_peers(grid, problems)
    _check_sessions(grid, problems)
    _check_catalog(grid, problems)
    if registry:
        _check_registry(grid, problems)
    return problems

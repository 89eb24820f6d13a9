"""``POST /compose`` for a departed ``peer_id`` is a clean 400.

A departed peer leaves nothing in the directory: its row is recycled,
``directory.get`` answers ``None`` and every ledger operation treats
the id as not alive.  The route asks ``directory.is_alive`` before it
builds a request.  A request naming a departed peer must leave the
session ledger, the neighbour tables and the network's bandwidth
reservations exactly as they were.
"""

import asyncio
import copy
import json

from repro.serve.core import GridRuntime, ServeConfig
from repro.serve.http import HttpRequest
from repro.serve.routers import build_router


def _state(grid):
    return (
        dict(grid.ledger._active),
        grid.ledger.n_admitted,
        {
            observer: [(e.peer_id, e.hop, e.direct, e.expires_at)
                       for e in table.entries()]
            for observer, table in grid.probing._tables.items()
        },
        copy.deepcopy(grid.network._reserved),
    )


def test_compose_for_a_departed_peer_is_400_and_changes_nothing():
    runtime = GridRuntime(ServeConfig(scenario="churn", seed=0))
    grid = runtime.grid
    grid.sim.run(until=5.0)
    directory = grid.directory
    departed = [p for p in range(directory._next_id)
                if not directory.is_alive(p)]
    assert departed
    peer = departed[0]
    assert directory.get(peer) is None  # no state is kept for it
    router = build_router(runtime)
    before = _state(grid)
    body = {"application": "video-on-demand", "peer_id": peer}
    response, route = asyncio.run(router.dispatch(HttpRequest(
        "POST", "/compose", {}, {}, json.dumps(body).encode(),
    )))
    assert (response.status, route) == (400, "/compose")
    assert response.payload["error"] == f"peer {peer} is not alive"
    assert _state(grid) == before
    assert peer not in grid.probing._tables

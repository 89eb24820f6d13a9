#!/usr/bin/env python
"""Content retrieval: the paper's simplest aggregation example, by hand.

§2.1 uses content retrieval as the minimal service aggregation (the
workload's variant pairs a content store with a renderer, staying within
the §4.1 path-length bounds of 2-5).  This example skips the workload
harness and drives the two tiers manually so
you can see every intermediate artifact: the discovery results, the
consistency graph, the QCS choice, the Φ scores of the candidate hosting
peers, and the final admission.

Run:  python examples/content_retrieval.py
"""

import numpy as np

from repro import GridConfig, P2PGrid, compose_qcs


def main() -> None:
    grid = P2PGrid(GridConfig(n_peers=400, seed=3))
    qsa = grid.make_aggregator("qsa")

    request = grid.make_request(
        "content-retrieval", qos_level="average", duration=8.0
    )
    path, user_qos = grid.compiler.compile(request)
    print(f"abstract path: {' -> '.join(path.services)} -> user")
    print(f"user QoS requirement: {user_qos!r}\n")

    # -- tier 0: discovery through the Chord registry --------------------
    candidates, hops = grid.registry.discover_path_candidates(
        path.services, request.peer_id
    )
    for service, specs in candidates.items():
        print(f"discovered {len(specs):2d} instances of {service!r} "
              f"({hops} DHT hops total)")

    # -- tier 1: QCS ------------------------------------------------------
    # The kernel reports the size of the consistency graph it solved on
    # its `qcs.composed` event.
    graphs = []
    grid.telemetry.bus.subscribe("qcs.composed", graphs.append)
    composed = compose_qcs(path, candidates, user_qos,
                           grid.composition_weights, telemetry=grid.telemetry)
    print(f"\nconsistency graph: {graphs[-1].n_nodes} nodes, "
          f"{graphs[-1].n_edges} QoS-consistent edges")
    chosen = composed.instances[-1]
    print(f"QCS choice: {chosen.instance_id} "
          f"(score {composed.score:.4f}, R={chosen.resources.values}, "
          f"b={chosen.bandwidth/1e3:.0f} kbps)")

    # -- tier 2: peer selection with Φ ------------------------------------
    hosts = sorted(grid.catalog.hosts(chosen.instance_id))
    print(f"\n{len(hosts)} peers host {chosen.instance_id}; "
          "the requester resolves them as 1-hop direct neighbors and probes:")
    grid.probing.resolve_selection_hops(request.peer_id, [hosts], direct=True)
    scored = []
    for pid in hosts:
        info = grid.probing.observe(request.peer_id, pid)
        if info is None:
            continue
        phi = grid.phi_weights.phi(
            info.availability, chosen.resources,
            info.bandwidth_to_observer, chosen.bandwidth,
        )
        scored.append((phi, pid, info))
    scored.sort(reverse=True)
    for phi, pid, info in scored[:5]:
        print(f"  peer {pid:<5} Φ={phi:8.2f} "
              f"avail={info.availability.values} "
              f"β={info.bandwidth_to_observer/1e6:.2f} Mbps "
              f"uptime={info.uptime:.0f} min")
    print("  ...")

    # -- end to end through the aggregator ----------------------------------
    result = qsa.aggregate(request)
    print(f"\nfull pipeline outcome: {result.status.value}; "
          f"selected peer(s): {result.peers}")
    grid.sim.run(until=10.0)
    print(f"sessions completed: {grid.ledger.n_completed}")


if __name__ == "__main__":
    main()

"""P2P lookup substrate: the Chord DHT and the service registry.

The paper treats discovery as a pluggable black box ("the P2P lookup
protocol, such as Chord [20] or CAN [16], is invoked to retrieve the
locations and QoS specifications of all candidate service instances").
We implement the box:

* :mod:`~repro.lookup.chord` -- a Chord ring: hashed identifier space,
  successor responsibility, per-node key storage with handoff on
  join/leave, and greedy finger routing with O(log N) hop counts.
* :mod:`~repro.lookup.registry` -- the service registry layered on
  Chord: service-name records carrying candidate instance specs and
  instance records carrying hosting peer sets, maintained under churn.

A CAN and a flooding overlay, the other substrates the paper names, live
beside the tests (``tests/lookup/can.py``, ``tests/lookup/flooding.py``):
the claims benches compare them with Chord, and a test injects the CAN
under a grid by monkeypatching ``repro.grid.ChordRing``.
"""

from repro.lookup.chord import ChordRing, ChordNode
from repro.lookup.registry import DhtProtocol, ServiceRegistry

__all__ = [
    "ChordNode",
    "ChordRing",
    "DhtProtocol",
    "ServiceRegistry",
]

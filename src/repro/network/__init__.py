"""The P2P network substrate (paper §2.2 network model, §4.1 setup).

* :mod:`~repro.network.soa` -- heterogeneous peers with end-system
  resource capacity/availability, access-link bandwidth and uptime
  (paper §4.1's RA = [cpu, memory] and access link), stored only as
  struct-of-arrays rows behind :class:`SoAPeerDirectory`, which holds
  each reservation rule once.
* :mod:`~repro.network.topology` -- O(1)-memory pairwise bottleneck
  bandwidth / latency classes and end-to-end available-bandwidth
  computation with reservation accounting.
* :mod:`~repro.network.churn` -- arbitrary peer arrivals/departures
  ("topological variation"), with heavy-tail-flavoured departure
  selection so that uptime is an honest predictor of longevity
  (matching the measurement study the paper builds on [17]).
"""

from repro.network.soa import SoAPeerDirectory
from repro.network.topology import (
    BANDWIDTH_CLASSES,
    LATENCY_CLASSES_MS,
    NetworkModel,
    PairwiseClasses,
)
from repro.network.churn import ChurnConfig, ChurnProcess

__all__ = [
    "BANDWIDTH_CLASSES",
    "ChurnConfig",
    "ChurnProcess",
    "LATENCY_CLASSES_MS",
    "NetworkModel",
    "PairwiseClasses",
    "SoAPeerDirectory",
]

"""The build/capability descriptor: one source of truth about this build.

``repro info`` (CLI) and ``GET /status`` (the serving plane) both need to
answer "what is this thing and what can it do" -- version, which fault
kinds the injector understands, which named scenarios ``repro serve``
loads, which aggregation algorithms are wired.  Before this module each
surface assembled its own ad-hoc strings; now they all render
:func:`build_descriptor`, so the two can never drift (tested in
``tests/serve/test_capabilities.py``).

The descriptor is plain JSON-able data: strings, numbers, sorted lists.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["SERVE_API_VERSION", "build_descriptor"]

#: Version tag of the serving-plane HTTP API; bump on incompatible
#: endpoint/payload changes (reported by ``GET /status``).
SERVE_API_VERSION = "serve/1"


def build_descriptor() -> Dict[str, Any]:
    """Assemble the capability descriptor (fresh dict per call)."""
    # Imported lazily: the scenario table pulls in the experiment stack,
    # which this leaf module must not load at import time.
    import repro
    from repro.experiments.config import SCENARIOS
    from repro.faults.plan import FAULT_KINDS
    from repro.grid import ALGORITHMS

    return {
        "name": "repro",
        "version": repro.__version__,
        "paper": (
            "A Scalable QoS-Aware Service Aggregation Model for "
            "Peer-to-Peer Computing Grids (HPDC 2002)"
        ),
        "serve_api": SERVE_API_VERSION,
        "fault_kinds": sorted(FAULT_KINDS),
        "scenarios": sorted(SCENARIOS),
        "algorithms": sorted(ALGORITHMS),
    }

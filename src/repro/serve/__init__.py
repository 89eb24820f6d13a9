"""The online serving plane: the grid as a long-lived composition service.

Layered DIRAC-style, one concern per module:

==============  =======================================================
module          concern
==============  =======================================================
``http``        dependency-free asyncio HTTP/1.1 transport
``logic``       request validation + JSON views (pure functions)
``routers``     URL surface -> runtime operations
``core``        :class:`ServeConfig`, the resident-grid runtime, the
                single-writer server
``client``      stdlib HTTP client (tests, loadgen, scripting)
``loadgen``     open/closed-loop §4.1 workload over HTTP
``cli``         ``repro serve`` / ``repro loadgen`` entry points
==============  =======================================================

See docs/serving.md for the endpoint contract and the sim-time
determinism guarantees.
"""

from repro.serve.core import (
    GridRuntime,
    ServeConfig,
    ServeServer,
    tune_gc_for_serving,
)

__all__ = [
    "GridRuntime",
    "ServeConfig",
    "ServeServer",
    "tune_gc_for_serving",
]

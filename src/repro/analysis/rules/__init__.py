"""Built-in lint rules; importing this package registers them all.

* :mod:`~repro.analysis.rules.determinism` -- DET001 (wall clock),
  DET002 (un-streamed randomness), DET003 (set-order iteration);
* :mod:`~repro.analysis.rules.telemetry` -- TEL001 (every emitted name
  is catalogued, every catalogued name is emitted).

Every rule checks one file at a time (TEL001's reverse check merges
per-file contributions in ``finalize``).  Add a rule by dropping a
module here (or extending an existing one) with ``@register``-decorated
:class:`~repro.analysis.registry.Rule` subclasses, then import it
below.  See docs/static-analysis.md.
"""

from __future__ import annotations

from repro.analysis.rules import determinism, telemetry

__all__ = ["determinism", "telemetry"]

"""Built-in lint rules; importing this package registers them all.

Add a rule by dropping a module here (or extending an existing one)
with ``@register``-decorated :class:`~repro.analysis.registry.Rule`
subclasses, then import it below.  See docs/static-analysis.md.
"""

from __future__ import annotations

from repro.analysis.rules import determinism, shard, telemetry

__all__ = ["determinism", "shard", "telemetry"]

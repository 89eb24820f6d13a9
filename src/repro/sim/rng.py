"""Named, independently seeded random-number streams.

Large simulations become impossible to debug when every subsystem pulls
from one shared RNG: adding a single draw anywhere perturbs everything
downstream.  :class:`RngStreams` hands each subsystem its own
:class:`numpy.random.Generator`, derived from a root seed via
``numpy.random.SeedSequence.spawn``-style key derivation, so

* the same ``(root_seed, stream_name)`` always yields the same stream, and
* streams are statistically independent of each other.

Usage::

    rng = RngStreams(seed=42)
    catalog_rng = rng.stream("catalog")
    churn_rng = rng.stream("churn")
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.sim.sanitizer import Sanitizer

__all__ = ["RngStreams", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name.

    Uses BLAKE2b over ``"{root_seed}/{name}"`` so the mapping is stable
    across processes, platforms, and Python hash randomization.
    """
    digest = hashlib.blake2b(
        f"{root_seed}/{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RngStreams:
    """A factory of named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0,
                 sanitizer: Optional["Sanitizer"] = None) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: Optional :class:`repro.sim.sanitizer.Sanitizer`: when set,
        #: every stream is handed out behind a draw-counting proxy.
        self.sanitizer = sanitizer

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (its state advances with use); construct a second
        ``RngStreams`` to replay from scratch.
        """
        gen = self._streams.get(name)
        if gen is None:
            raw = np.random.default_rng(derive_seed(self.seed, name))
            if self.sanitizer is not None:
                gen = self.sanitizer.wrap_stream(name, raw)
            else:
                gen = raw
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"

"""Resource vectors and the weighted-normalized tuple comparison (Def. 3.1).

Every service instance carries an end-system resource requirement vector
``R = [r_1 .. r_m]`` (e.g. ``[cpu, memory]``) plus a network bandwidth
requirement ``b`` on the edge to its successor.  The QCS composition
algorithm weighs edges by the *resource tuple* ``(R_B, b_{B,A})`` and
compares (aggregated) tuples with Definition 3.1:

.. math::

   \\sum_{i=1}^{m} w_i \\frac{r_i^B - r_i^D}{r_i^{max}}
   + w_{m+1} \\frac{b_{B,A} - b_{D,C}}{b^{max}} > 0
   \\;\\Rightarrow\\; (R^B, b_{B,A}) > (R^D, b_{D,C})

with non-negative weights summing to 1 (Eq. 3).  The comparison is
equivalent to comparing the scalar *scores*
``score(t) = Σ w_i r_i / r_max_i + w_{m+1} b / b_max`` -- the difference of
two scores is exactly the left-hand side above.  Production ranks by the
scalar score (the additive edge weight Dijkstra needs, a total order
compatible with addition); the literal pairwise comparison is the test
oracle ``tests/core/reference_kernels.py::compare``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = ["ResourceVector", "ResourceTuple", "WeightProfile"]


class ResourceVector:
    """A named, non-negative vector of end-system resources.

    Thin wrapper over a ``float64`` numpy array with a dimension-name
    tuple.  All arithmetic verifies dimension compatibility; the names
    make experiment configs and error messages self-describing.
    """

    __slots__ = ("names", "values")

    def __init__(self, names: Sequence[str], values: Iterable[float]) -> None:
        self.names: Tuple[str, ...] = tuple(names)
        # astype/asarray(list(...)) both yield a fresh array -- the
        # constructor always copies so callers cannot alias our state.
        if isinstance(values, np.ndarray):
            self.values = values.astype(np.float64)
        else:
            self.values = np.asarray(list(values), dtype=np.float64)
        if self.values.shape != (len(self.names),):
            raise ValueError(
                f"{len(self.names)} names but values of shape {self.values.shape}"
            )
        if (self.values < 0).any():
            raise ValueError(f"negative resource amounts: {self.values}")

    def _check(self, other: "ResourceVector") -> None:
        if self.names != other.names:
            raise ValueError(
                f"incompatible resource dimensions: {self.names} vs {other.names}"
            )

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        self._check(other)
        out = ResourceVector.__new__(ResourceVector)
        out.names = self.names
        out.values = self.values + other.values
        return out

    def ratio_to(self, requirement: "ResourceVector") -> np.ndarray:
        """Component-wise availability/requirement ratios (Φ's ra_i/r_i)."""
        self._check(requirement)
        with np.errstate(divide="ignore"):
            return np.where(
                requirement.values > 0,
                self.values / requirement.values,
                np.inf,
            )

    # -- misc ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self.names == other.names and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.names, self.values.tobytes()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(self.names, self.values))
        return f"ResourceVector({inner})"


@dataclass(frozen=True)
class ResourceTuple:
    """The edge cost ``(R, b)`` from Def. 3.1.

    ``R`` is the end-system requirement of the edge's head node; ``b`` the
    bandwidth required on the connection.  Tuples add component-wise so a
    path's aggregated requirement is the sum of its edge tuples.
    """

    resources: ResourceVector
    bandwidth: float

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise ValueError(f"negative bandwidth requirement: {self.bandwidth}")

    def __add__(self, other: "ResourceTuple") -> "ResourceTuple":
        return ResourceTuple(
            self.resources + other.resources, self.bandwidth + other.bandwidth
        )

    @classmethod
    def zero(cls, names: Sequence[str]) -> "ResourceTuple":
        return cls(ResourceVector(names, np.zeros(len(names))), 0.0)


class WeightProfile:
    """The weights and normalizers of Def. 3.1 / Eq. 2-3.

    Parameters
    ----------
    resource_names:
        Names of the ``m`` end-system resource types, in order.
    resource_weights:
        ``w_1 .. w_m`` (non-negative).
    bandwidth_weight:
        ``w_{m+1}`` (non-negative).  All weights must sum to 1 (Eq. 3);
        pass ``normalize=True`` to rescale automatically.
    resource_maxima / bandwidth_max:
        The normalizers ``r_i^max`` and ``b^max``.
    """

    __slots__ = (
        "resource_names",
        "weights",
        "bandwidth_weight",
        "maxima",
        "bandwidth_max",
    )

    def __init__(
        self,
        resource_names: Sequence[str],
        resource_weights: Sequence[float],
        bandwidth_weight: float,
        resource_maxima: Sequence[float],
        bandwidth_max: float,
        normalize: bool = False,
    ) -> None:
        self.resource_names = tuple(resource_names)
        w = np.asarray(list(resource_weights), dtype=np.float64)
        wb = float(bandwidth_weight)
        if w.shape != (len(self.resource_names),):
            raise ValueError("one weight per resource type is required")
        if np.any(w < 0) or wb < 0:
            raise ValueError("weights must be non-negative (Eq. 3)")
        total = float(w.sum() + wb)
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize all-zero weights")
            w, wb = w / total, wb / total
        elif abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 (Eq. 3); got {total}")
        self.weights = w
        self.bandwidth_weight = wb
        self.maxima = np.asarray(list(resource_maxima), dtype=np.float64)
        if self.maxima.shape != w.shape or np.any(self.maxima <= 0):
            raise ValueError("resource maxima must be positive, one per type")
        self.bandwidth_max = float(bandwidth_max)
        if self.bandwidth_max <= 0:
            raise ValueError("bandwidth_max must be positive")

    @classmethod
    def uniform(
        cls,
        resource_names: Sequence[str],
        resource_maxima: Sequence[float],
        bandwidth_max: float,
    ) -> "WeightProfile":
        """Uniform importance weights (the paper's evaluation setting)."""
        m = len(resource_names)
        w = np.full(m + 1, 1.0 / (m + 1))
        return cls(resource_names, w[:m], w[m], resource_maxima, bandwidth_max)

    # -- Def. 3.1 --------------------------------------------------------------
    def score(self, t: ResourceTuple) -> float:
        """Scalar score whose differences realize the Def. 3.1 comparison."""
        if t.resources.names != self.resource_names:
            raise ValueError(
                f"tuple has dimensions {t.resources.names}, "
                f"profile expects {self.resource_names}"
            )
        return float(
            np.dot(self.weights, t.resources.values / self.maxima)
            + self.bandwidth_weight * t.bandwidth / self.bandwidth_max
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{n}:{w:.3f}" for n, w in zip(self.resource_names, self.weights)
        )
        return f"WeightProfile({parts}, bw:{self.bandwidth_weight:.3f})"

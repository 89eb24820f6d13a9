"""Application-level QoS vectors and the "satisfy" relation (paper Eq. 1).

The paper models every service component as accepting input at QoS level
``Qin`` and producing output at QoS level ``Qout``; both are vectors of
application-level QoS parameters.  Parameters come in two flavours:

* **single-value** parameters -- e.g. data format (``"MPEG"``), resolution
  (``"640x480"``); and
* **range-value** parameters -- e.g. frame rate (``[10, 30]`` fps),
  represented here by :class:`Interval`.

Two components ``A -> B`` may be connected iff ``Qout_A ⪯ Qin_B``
("satisfies", Eq. 1): *for every* dimension of ``Qin_B`` there must exist
a dimension of ``Qout_A`` that equals it (single value) or is contained in
it (range value).  Dimensions are matched by parameter *name*; the paper's
existential quantifier over indices reduces to a name lookup because a QoS
vector never carries two dimensions with the same name.

Extra dimensions in ``Qout_A`` that ``Qin_B`` does not mention are allowed
(B simply ignores them), which matches the paper's ∀/∃ formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Column",
    "Interval",
    "QoSValue",
    "QoSVector",
    "satisfies",
    "satisfies_classes",
]


@dataclass(frozen=True, order=True)
class Interval:
    """A closed numeric interval ``[lo, hi]`` (a range-value QoS parameter)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    def contains_value(self, x: float) -> bool:
        """Whether the scalar ``x`` lies within the interval."""
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` ⊆ ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


#: A QoS parameter value: categorical (str), scalar (int/float) or a range.
QoSValue = Union[str, int, float, Interval]


def _value_satisfies(offered: QoSValue, required: QoSValue) -> bool:
    """Does a single offered parameter value satisfy a required one?

    Implements the per-dimension clauses of Eq. 1:

    * required is a **single value** -> offered must equal it exactly
      (a degenerate offered interval ``[v, v]`` counts as the value ``v``);
    * required is a **range** -> offered must be contained in it
      (a scalar counts as the degenerate interval ``[v, v]``).
    """
    if isinstance(required, Interval):
        if isinstance(offered, Interval):
            return required.contains_interval(offered)
        if isinstance(offered, (int, float)) and not isinstance(offered, bool):
            return required.contains_value(float(offered))
        return False
    # required is a single value
    if isinstance(offered, Interval):
        return offered.lo == offered.hi and _scalar_eq(offered.lo, required)
    return _scalar_eq(offered, required)


def _scalar_eq(a: QoSValue, b: QoSValue) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return float(a) == float(b)


class QoSVector(Mapping[str, QoSValue]):
    """An immutable named vector of QoS parameters (``Qin`` or ``Qout``).

    Construct from keyword arguments or a mapping::

        q = QoSVector(format="MPEG", frame_rate=Interval(10, 30))
        q["format"]        # 'MPEG'
        len(q)             # 2: Dim(Q) in the paper
    """

    __slots__ = ("_params",)

    def __init__(
        self, params: Mapping[str, QoSValue] | None = None, **kw: QoSValue
    ) -> None:
        merged: Dict[str, QoSValue] = dict(params or {})
        merged.update(kw)
        for name, value in merged.items():
            if not isinstance(value, (str, int, float, Interval)) or isinstance(
                value, bool
            ):
                raise TypeError(
                    f"QoS parameter {name!r} has unsupported type "
                    f"{type(value).__name__}"
                )
        self._params: Dict[str, QoSValue] = merged

    # -- Mapping protocol --------------------------------------------------
    def __getitem__(self, name: str) -> QoSValue:
        return self._params[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    # -- misc ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QoSVector):
            return NotImplemented
        return self._params == other._params

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._params.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._params.items()))
        return f"QoSVector({inner})"

    def as_tuple(self) -> Tuple[Tuple[str, QoSValue], ...]:
        """A canonical, hashable form (sorted by parameter name)."""
        return tuple(sorted(self._params.items(), key=lambda kv: kv[0]))


def satisfies(offered: QoSVector, required: QoSVector) -> bool:
    """The inter-component "satisfy" relation ``offered ⪯ required`` (Eq. 1).

    ``offered`` plays the role of ``Qout_A``; ``required`` of ``Qin_B``.
    Returns True iff every dimension of ``required`` is matched by the
    identically named dimension of ``offered`` under the single-value /
    range-value rules.
    """
    offered_params = offered._params
    for name, req_value in required._params.items():
        off_value = offered_params.get(name)
        if off_value is None:
            return False
        if not _value_satisfies(off_value, req_value):
            return False
    return True


#: One QoS dimension over a population: its distinct values (``None``:
#: the vector lacks the dimension) and, per vector, the index of its
#: value among them.
Column = Tuple[Sequence[Optional[QoSValue]], np.ndarray]


def satisfies_classes(
    offered: Mapping[str, Column],
    required: Mapping[str, Column],
    n_offered: int,
    n_required: int,
) -> Tuple[np.ndarray, int]:
    """Eq. 1 over two populations given as per-dimension value classes.

    Returns ``(M, evaluations)``, ``M[i, j]`` being the relation between
    offered vector ``j`` and required vector ``i``.  Per required
    dimension, :func:`_value_satisfies` is asked once per distinct
    (offered value, required value) -- an absent requirement admits
    everything, an absent offer nothing, and an offered population with
    no :data:`Column` for the name lacks it throughout -- and the small
    class table is gathered back to population shape and ANDed in.
    ``evaluations`` counts those calls.
    """
    result = np.ones((n_required, n_offered), dtype=bool)
    if not result.size:
        return result, 0
    evaluations = 0
    absent: Column = ([None], np.zeros(n_offered, dtype=np.intp))
    for name, (req_values, req_at) in required.items():
        offers, off_at = offered.get(name, absent)
        n_offers = sum(off is not None for off in offers)
        table: List[List[bool]] = []
        for req_value in req_values:
            if req_value is None:
                table.append([True] * len(offers))
                continue
            table.append([
                off is not None and _value_satisfies(off, req_value)
                for off in offers
            ])
            evaluations += n_offers
        # Two takes, not one 2-D fancy index: ~5x cheaper at this size.
        result &= (
            np.array(table, dtype=bool)
            .take(req_at, axis=0)
            .take(off_at, axis=1)
        )
    return result, evaluations

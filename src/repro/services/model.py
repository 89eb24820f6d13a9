"""Abstract services, service instances and abstract service paths.

Terminology (paper §2.1 and §2.3):

* An **abstract service** is a functional step, named by a string
  (``"video-server"``, ``"cn2en-translator"``, ``"image-enhancer"``).
* A **service instance** is a concrete implementation of an abstract
  service with fixed QoS characteristics: input requirement ``Qin``,
  output level ``Qout``, end-system resource requirement ``R`` and
  required bandwidth ``b`` on its *outgoing* (downstream) connection.
  The same instance may be replicated on many peers.
* An **abstract service path** is the ordered list of abstract services a
  distributed application needs, written in *flow order*: data flows from
  the first element (the source, e.g. a video server) to the last element
  (closest to the user).  The user's host itself is the data *sink* and is
  not part of the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.qos import QoSValue, QoSVector
from repro.core.resources import ResourceVector

__all__ = [
    "AbstractServicePath",
    "InstanceTable",
    "ServiceInstance",
]


def _frozen(block: Any, dtype: type, shape: Tuple[int, ...]) -> np.ndarray:
    """A private read-only ``dtype`` copy of ``block``, checked for ``shape``."""
    array = np.array(block, dtype=dtype)
    if array.shape != shape:
        raise ValueError(f"expected a block of shape {shape}, got {array.shape}")
    array.setflags(write=False)
    return array


class InstanceTable:
    """Service instances as columns: one row per instance.

    A catalog's redundancy (§2.3: many instances per service) makes
    tens of thousands of instances, so they are held as one table and
    each :class:`ServiceInstance` is a two-slot view over a row of it
    (``PeerRowView`` is the same idea for peers).  The columns:

    * ``ids`` -- instance ids, and ``service_of`` the service of each
      row; rows are grouped by service, ``services[k]`` owning rows
      ``offsets[k]:offsets[k + 1]``;
    * ``qin`` / ``qout`` -- ``(n, len(in_dims))`` / ``(n, len(out_dims))``
      int codes of the ``Qin`` / ``Qout`` parameter values, one column
      per dimension name, into the one interned vocabulary ``values``
      (every row's ``Qin`` has the dimensions ``in_dims``, every row's
      ``Qout`` the dimensions ``out_dims``);
    * ``resources`` -- the read-only ``(n, m)`` block of ``R`` over
      ``resource_names``, and ``bandwidth`` the read-only ``b`` vector.

    A catalog's table interns ``values`` by ``==`` (values the Eq. 1
    clauses cannot tell apart, like ``1`` and ``1.0``, share one code);
    a one-row table keeps its vectors' values as given.  A view's
    ``qin`` / ``qout`` is built from its codes on first access and then
    shared by every row with the same codes.
    """

    __slots__ = (
        "ids", "service_of", "services", "offsets", "values",
        "in_dims", "qin", "out_dims", "qout",
        "resource_names", "resources", "bandwidth",
        "_vectors", "_resource_vectors",
    )

    def __init__(
        self,
        ids: List[str],
        services: Sequence[Tuple[str, int]],
        values: List[QoSValue],
        in_dims: Sequence[str],
        qin: Any,
        out_dims: Sequence[str],
        qout: Any,
        resource_names: Sequence[str],
        resources: Any,
        bandwidth: Any,
    ) -> None:
        n = len(ids)
        self.ids = ids
        self.services = tuple(name for name, _ in services)
        counts = [count for _, count in services]
        self.offsets = tuple(np.cumsum([0] + counts).tolist())
        if self.offsets[-1] != n:
            raise ValueError(f"{self.offsets[-1]} service rows for {n} ids")
        self.service_of: List[str] = []
        for name, count in services:
            self.service_of += [name] * count
        self.values = values
        self.in_dims = tuple(in_dims)
        self.out_dims = tuple(out_dims)
        self.qin = _frozen(qin, np.int32, (n, len(self.in_dims)))
        self.qout = _frozen(qout, np.int32, (n, len(self.out_dims)))
        for codes in (self.qin, self.qout):
            if codes.size and not 0 <= codes.min() <= codes.max() < len(values):
                raise ValueError("QoS codes outside the value vocabulary")
        self.resource_names = tuple(resource_names)
        self.resources = _frozen(
            resources, np.float64, (n, len(self.resource_names))
        )
        if (self.resources < 0).any():
            raise ValueError(f"negative resource amounts: {self.resources.min()}")
        self.bandwidth = _frozen(bandwidth, np.float64, (n,))
        negative = np.flatnonzero(self.bandwidth < 0)
        if len(negative):
            row = int(negative[0])
            raise ValueError(
                f"instance {ids[row]!r}: negative bandwidth {self.bandwidth[row]}"
            )
        #: ``(side, codes...)`` -> the one QoSVector with those values.
        self._vectors: Dict[Tuple[int, ...], QoSVector] = {}
        #: Row -> its ``R`` as a ResourceVector, made on first access.
        self._resource_vectors: List[Optional[ResourceVector]] = [None] * n

    def views(self) -> List["ServiceInstance"]:
        """One view per row, in row order."""
        new = ServiceInstance.__new__
        out = []
        for row in range(len(self.ids)):
            inst = new(ServiceInstance)
            inst._table = self
            inst._row = row
            out.append(inst)
        return out

    def qos(self, side: int, row: int) -> QoSVector:
        """Row ``row``'s ``Qin`` (``side`` 0) or ``Qout`` (``side`` 1)."""
        codes = (self.qin if side == 0 else self.qout)[row].tolist()
        key = (side, *codes)
        vector = self._vectors.get(key)
        if vector is None:
            dims = self.in_dims if side == 0 else self.out_dims
            vector = self._vectors[key] = QoSVector({
                name: self.values[code] for name, code in zip(dims, codes)
            })
        return vector

    def resource_vector(self, row: int) -> ResourceVector:
        """Row ``row``'s ``R``: a vector over the read-only block row,
        made once, so that every session holding it shares one object."""
        vector = self._resource_vectors[row]
        if vector is None:
            vector = ResourceVector.__new__(ResourceVector)
            vector.names = self.resource_names
            vector.values = self.resources[row]
            self._resource_vectors[row] = vector
        return vector

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InstanceTable {len(self.ids)} rows, "
            f"{len(self.services)} services, {len(self.values)} values>"
        )


class ServiceInstance:
    """A concrete implementation of an abstract service.

    A read-only view over one row of an :class:`InstanceTable`
    (:meth:`InstanceTable.views`); a catalog hands out views over its
    one table.  Every field reads as a plain Python value.

    Attributes
    ----------
    instance_id:
        Globally unique identifier (e.g. ``"transcode/7"``).
    service:
        The abstract service this instance implements.
    qin:
        QoS requirement on the instance's input (must be satisfied by the
        upstream instance's ``qout``; Eq. 1).
    qout:
        QoS level of the instance's output.
    resources:
        End-system resources ``R`` consumed while the instance runs
        (paper: ``R = f(Qin, Qout)``).
    bandwidth:
        Network bandwidth ``b`` required on the instance's outgoing
        connection (towards the data sink / user).
    """

    __slots__ = ("_table", "_row")

    @property
    def table(self) -> InstanceTable:
        return self._table

    @property
    def row(self) -> int:
        return self._row

    @property
    def instance_id(self) -> str:
        return self._table.ids[self._row]

    @property
    def service(self) -> str:
        return self._table.service_of[self._row]

    @property
    def qin(self) -> QoSVector:
        return self._table.qos(0, self._row)

    @property
    def qout(self) -> QoSVector:
        return self._table.qos(1, self._row)

    @property
    def resources(self) -> ResourceVector:
        return self._table.resource_vector(self._row)

    @property
    def bandwidth(self) -> float:
        return self._table.bandwidth.item(self._row)

    def _fields(self) -> Tuple[Any, ...]:
        return (
            self.instance_id, self.service, self.qin, self.qout,
            self.resources, self.bandwidth,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceInstance):
            return NotImplemented
        if self._table is other._table and self._row == other._row:
            return True
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.instance_id, self.service, self.bandwidth))

    def __repr__(self) -> str:
        return f"<ServiceInstance {self.instance_id}>"


@dataclass(frozen=True)
class AbstractServicePath:
    """An ordered list of abstract services in flow (source -> user) order.

    An *n*-service path is an *n*-hop service aggregation: it involves
    *n* peers besides the requesting peer (paper §2.1).
    """

    application: str
    services: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.services:
            raise ValueError("abstract service path must contain >= 1 service")
        if len(set(self.services)) != len(self.services):
            raise ValueError(
                f"abstract path for {self.application!r} repeats a service: "
                f"{self.services}"
            )

    def reversed(self) -> Tuple[str, ...]:
        """Services in aggregation/selection order (user side first)."""
        return tuple(reversed(self.services))

    def __len__(self) -> int:
        return len(self.services)

    def __iter__(self):
        return iter(self.services)


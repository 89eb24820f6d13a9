"""The request front end: user request -> abstract path + QoS vector.

Paper §3.2, step "Acquire and translate the user request": the user names
a distributed application (or spells out the abstract service path) and a
QoS level; the *QoS compiler* [14] maps that onto an abstract service
path plus an end-to-end QoS requirement vector.

Our compiler is rule-based: the application template fixes the abstract
path; the end-to-end requirement asks for a specific output *format* from
the final interface vocabulary plus a minimum *quality* level (the
paper's single three-level QoS parameter)::

    user_qos = { format: <requested format>, quality: [level, 3] }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.core.qos import Interval, QoSVector
from repro.services.applications import QUALITY_LEVELS, ApplicationTemplate
from repro.services.model import AbstractServicePath

__all__ = ["UserRequest", "QoSCompiler"]


@dataclass(frozen=True, slots=True)
class UserRequest:
    """One service aggregation request (workload unit of §4.1).

    Attributes
    ----------
    request_id:
        Unique id, assigned by the workload generator.
    peer_id:
        The requesting peer (where the aggregation starts).
    application:
        Name of the requested distributed application.
    qos_level:
        ``"low"`` / ``"average"`` / ``"high"``.
    out_format:
        Requested output format; ``None`` lets the compiler pick one.
    session_duration:
        Minutes the delivery must run (paper: uniform in [1, 60]).
    arrival_time:
        Simulated arrival minute.
    """

    request_id: int
    peer_id: int
    application: str
    qos_level: str
    session_duration: float
    arrival_time: float
    out_format: Optional[str] = None

    def __post_init__(self) -> None:
        if self.qos_level not in QUALITY_LEVELS:
            raise ValueError(
                f"unknown QoS level {self.qos_level!r}; "
                f"expected one of {sorted(QUALITY_LEVELS)}"
            )
        if self.session_duration <= 0:
            raise ValueError("session duration must be positive")


class QoSCompiler:
    """Maps :class:`UserRequest` onto ``(AbstractServicePath, QoSVector)``.

    ``rng`` draws the output format of requests that leave it unset.  The
    grid hands the compiler its own stream (``"compiler"``), so the user
    QoS a request compiles to depends on the request sequence alone --
    never on how many draws the aggregator's selection made before it.
    """

    def __init__(
        self,
        applications: Mapping[str, ApplicationTemplate],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.applications = dict(applications)
        self.rng = rng

    @classmethod
    def from_templates(
        cls, templates, rng: Optional[np.random.Generator] = None
    ) -> "QoSCompiler":
        return cls({t.name: t for t in templates}, rng)

    def compile(
        self, request: UserRequest
    ) -> tuple[AbstractServicePath, QoSVector]:
        """Translate a request; unknown applications raise ``KeyError``.

        If the request leaves ``out_format`` unset, one is drawn uniformly
        from the application's user-facing vocabulary (requires ``rng``).
        """
        try:
            app = self.applications[request.application]
        except KeyError:
            raise KeyError(
                f"unknown application {request.application!r}; "
                f"known: {sorted(self.applications)}"
            ) from None
        fmt = request.out_format
        if fmt is None:
            if self.rng is None:
                raise ValueError(
                    "out_format unset and no rng provided to choose one"
                )
            fmts = app.user_formats()
            fmt = fmts[int(self.rng.integers(len(fmts)))]
        elif fmt not in app.user_formats():
            raise ValueError(
                f"format {fmt!r} is not offered by {app.name!r} "
                f"(offers {app.user_formats()})"
            )
        level = QUALITY_LEVELS[request.qos_level]
        max_level = max(QUALITY_LEVELS.values())
        user_qos = QoSVector(format=fmt, quality=Interval(level, max_level))
        return app.path, user_qos

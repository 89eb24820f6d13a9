"""Host-speed normalisation for the timing metrics.

The sizing host (a 2-core VM) changes speed by 10-25 % for seconds to
minutes at a time, and the slowdown shows in CPU time exactly as in wall
time, so neither more repetitions inside a 30 s run nor a different clock
removes it.  What does is a reference: a fixed kernel of the operations the
program is made of (dict and list work, small-array numpy) is timed between
slices of the measured work, and every slice -- and every latency recorded
in it -- is scaled by ``REFERENCE_S / kernel time around that slice``.

Times are therefore in seconds *of a host on which the kernel takes*
``REFERENCE_S``.  In twelve-pass trials on one seed this cut the run-to-run
spread of run time and p50 latency from 13 % to 4 % and of p99 from 12 % to
8 %, before any median over passes.  The kernel is bench-owned code: a change
to the program cannot move it, so gains and regressions pass through
unchanged.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: Kernel time on the quiet sizing host.  It only fixes the unit: on that
#: host, undisturbed, normalised seconds equal wall seconds.
REFERENCE_S = 0.0028

_rng = np.random.default_rng(1)
_POINTS = _rng.random((200, 2))
_PICK = _rng.integers(0, 200, 80)
_IDS = _rng.integers(0, 10_000, 300)


def kernel() -> float:
    """Seconds one run of the reference kernel takes right now."""
    t0 = perf_counter()
    table = {}
    for _ in range(36):
        for i in range(300):
            table[i] = (i * 7) % 13
        total = 0
        for value in table.values():
            total += value
        rows = _POINTS[_PICK]
        (rows[:, 0] * 0.5 + rows[:, 1]).argsort()
        _, first = np.unique(_IDS, return_index=True)
        first.sort()
        np.flatnonzero((_IDS[:, None] == _IDS[:50]).any(axis=1))
    return perf_counter() - t0


def factor_now() -> float:
    """The current scale factor (median of three kernel runs)."""
    return REFERENCE_S / statistics.median(kernel() for _ in range(3))


class SlicedClock:
    """Times consecutive slices of work with a kernel run between them."""

    def __init__(self) -> None:
        self._marks: List[float] = [kernel()]
        self.slices: List[float] = []

    @property
    def index(self) -> int:
        """Index of the slice being timed (tag samples with it)."""
        return len(self.slices)

    def run(self, work: Callable[[], None]) -> None:
        t0 = perf_counter()
        work()
        self.slices.append(perf_counter() - t0)
        self._marks.append(kernel())

    def factors(self) -> List[float]:
        return [REFERENCE_S * 2 / (a + b)
                for a, b in zip(self._marks, self._marks[1:])]

    @property
    def raw_s(self) -> float:
        return sum(self.slices)

    @property
    def normalised_s(self) -> float:
        return sum(s * f for s, f in zip(self.slices, self.factors()))

    def normalise(self, samples: Sequence[Tuple[int, float]]) -> List[float]:
        """``(slice index, seconds)`` samples scaled by their slice's factor."""
        factors = self.factors()
        return [seconds * factors[index] for index, seconds in samples]

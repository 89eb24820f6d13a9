"""Capped exponential backoff with deterministic, seeded jitter.

Every hardened consumer -- the prober, the lookup registry, session
admission and runtime recovery -- retries under one :class:`RetryPolicy`,
the one its run's :class:`~repro.faults.injector.FaultInjector` holds
and applies (:meth:`~repro.faults.injector.FaultInjector.retry_delay`).

Backoff delays are *simulated* minutes.  Where the consumer runs inside
the synchronous setup pipeline (probing, lookup, admission) the delay is
virtual: it is recorded on the ``retry.attempt`` telemetry event for
analysis but does not advance the clock, because the paper's setup
protocol is a synchronous exchange.  Runtime recovery, which is event
driven, schedules its retries at real simulated delays.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + capped exponential backoff schedule.

    ``delay(k)`` for the ``k``-th retry (1-based) is::

        min(cap, base * multiplier**(k-1)) * jitter_factor

    where ``jitter_factor`` is drawn uniformly from
    ``[1 - jitter, 1]`` when an RNG is supplied (deterministic under a
    seeded generator) and is 1 otherwise.
    """

    #: How many retries follow the first attempt (0 = fail immediately).
    max_retries: int = 3
    #: First retry delay, simulated minutes.
    backoff_base: float = 0.05
    #: Upper bound on any single delay.
    backoff_cap: float = 0.5
    #: Geometric growth factor between consecutive retries.
    multiplier: float = 2.0
    #: Randomized fraction of each delay (0 disables jitter).
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base <= 0:
            raise ValueError("backoff_base must be positive")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff before retry number ``attempt`` (1-based), minutes."""
        if attempt < 1:
            raise ValueError("retry attempts are numbered from 1")
        d = min(self.backoff_cap,
                self.backoff_base * self.multiplier ** (attempt - 1))
        if rng is not None and self.jitter > 0:
            d *= (1.0 - self.jitter) + self.jitter * float(rng.random())
        return d

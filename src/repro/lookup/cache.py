"""Bounded caches with hit/miss accounting.

Discovery itself holds no cache (every registry read is one routed DHT
walk); what remains here serves the QCS composition memos:

* :class:`BoundedCache` -- an LRU-evicting mapping with a hard size cap
  and hit/miss accounting (the vectorized composer's plan cache), plus
  a **generation** tag for owners that invalidate wholesale.
* :class:`CacheStats` -- plain hit/miss counters shared by every cache
  site (QCS plan cache, QCS edge cache).
* :func:`trim_mapping` -- cap an ordinary dict used as an insertion-
  ordered memo (the QCS edge/cost caches keep their zero-overhead plain
  dict hot loops; the cap is enforced between compositions).

None of these draw RNG, advance the simulator or emit bus events --
instrumentation is metrics-counters only, so a cached run's telemetry
JSONL export stays byte-identical to an uncached one.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

__all__ = ["CacheStats", "BoundedCache", "trim_mapping"]


class CacheStats:
    """Hit/miss tallies for one cache site."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.total
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CacheStats hits={self.hits} misses={self.misses} "
                f"rate={self.hit_rate:.1%}>")


class BoundedCache:
    """An LRU mapping with a size cap and a generation tag.

    The owner decides what a generation means; :meth:`check_generation`
    clears the cache when the tag moved.

    Hit/miss accounting is explicit (``stats``) rather than implicit in
    :meth:`get`, because call sites count at different granularities.
    """

    __slots__ = ("cap", "generation", "stats", "_data")

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError("cache cap must be positive")
        self.cap = cap
        self.generation: Optional[int] = None
        self.stats = CacheStats()
        self._data: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def check_generation(self, generation: int) -> None:
        """Clear everything if the owner's generation moved."""
        if generation != self.generation:
            self._data.clear()
            self.generation = generation

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (refreshed to most-recently-used) or None."""
        data = self._data
        value = data.get(key)
        if value is not None:
            # Move-to-end keeps eviction LRU (dicts preserve insertion
            # order, so re-inserting refreshes the entry's position).
            del data[key]
            data[key] = value
        return value

    def put(self, key: Hashable, value: Any) -> None:
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.cap:
            data.pop(next(iter(data)))
        data[key] = value

    def clear(self) -> None:
        self._data.clear()


def trim_mapping(mapping: Dict, cap: int) -> int:
    """Evict oldest-inserted entries of a plain-dict memo down to ``cap``.

    Returns the number of evictions.  Used for the QCS edge/cost caches,
    whose hot loops stay plain ``dict.get``/``[]=`` -- the cap is
    enforced once per composition instead of per access.
    """
    overflow = len(mapping) - cap
    if overflow <= 0:
        return 0
    victims = []
    for key in mapping:
        victims.append(key)
        if len(victims) == overflow:
            break
    for key in victims:
        del mapping[key]
    return overflow

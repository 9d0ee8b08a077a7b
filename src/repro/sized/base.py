"""Byte-level accounting for size-aware caching (paper §5 future work).

The paper deliberately ignores object sizes "to focus on how access
patterns affect cache efficiency", and closes §5 with: "designing
size-aware Lazy Promotion and Quick Demotion techniques are worth
pursuing in the future."  This subpackage pursues them.

A size-aware cache is one of the ordinary policies fed ``request(key,
size)`` against a *byte* capacity (see
:func:`~repro.policies.registry.make_sized`); each object consumes its
own size.  Two efficiency metrics coexist (and routinely disagree):

* **object miss ratio** -- fraction of requests that missed;
* **byte miss ratio** -- fraction of requested bytes that missed,
  which is what origin bandwidth cares about.

Objects larger than the capacity bypass the cache (counted as misses).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SizedStats:
    """Request- and byte-level hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0

    @property
    def requests(self) -> int:
        """Total requests observed."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Object (request-count) miss ratio."""
        total = self.requests
        if total == 0:
            return 0.0
        return self.misses / total

    @property
    def byte_miss_ratio(self) -> float:
        """Byte-weighted miss ratio."""
        total = self.hit_bytes + self.miss_bytes
        if total == 0:
            return 0.0
        return self.miss_bytes / total

    def record(self, hit: bool, size: int) -> None:
        """Record one request outcome."""
        if hit:
            self.hits += 1
            self.hit_bytes += size
        else:
            self.misses += 1
            self.miss_bytes += size

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = 0
        self.hit_bytes = self.miss_bytes = 0


__all__ = ["SizedStats"]

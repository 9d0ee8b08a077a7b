"""Greedy-Dual-Size-Frequency (GDSF), the classic size-aware policy.

A descendant of Cao & Irani's GreedyDual-Size, GDSF is the strong
size-aware web-caching baseline of the sized study: priority = L +
frequency / size, where L is an inflation clock equal to the last
evicted priority.  At unit size it is an LFU with aging.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.base import EvictionPolicy, Key


class GDSF(EvictionPolicy):
    """Greedy-Dual-Size-Frequency.

    Each object's priority is ``L + frequency / size``; eviction takes
    the minimum-priority object and raises the inflation clock ``L``
    to that priority, so long-idle objects age out relative to new
    arrivals.  Favouring small, hot objects gives GDSF excellent
    *object* miss ratios on web workloads (often at some cost in byte
    miss ratio).
    """

    name = "GDSF"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.used = 0
        self._inflation = 0.0
        #: key -> (priority, frequency, size)
        self._meta: Dict[Key, Tuple[float, int, int]] = {}
        self._heap: List[Tuple[float, int, Key]] = []
        self._counter = 0

    def _push(self, key: Key, freq: int, size: int) -> None:
        priority = self._inflation + freq / size
        self._meta[key] = (priority, freq, size)
        self._counter += 1
        heapq.heappush(self._heap, (priority, self._counter, key))

    def request(self, key: Key, size: int = 1) -> bool:
        meta = self._meta.get(key)
        if meta is not None:
            _, freq, cached_size = meta
            if cached_size != size:
                self._check_size(size)
                self.used += size - cached_size
            self._push(key, freq + 1, size)
            self._promoted(key=key)
            self._shrink(skip=key)
            self._record(True)
            self._notify_hit(key)
            return True
        self._check_size(size)
        self._record(False)
        if size > self.capacity:
            return False
        while self.used + size > self.capacity:
            self._evict_one()
        self._push(key, 1, size)
        self.used += size
        self._notify_admit(key)
        return False

    def _evict_one(self) -> None:
        while True:
            priority, counter, key = heapq.heappop(self._heap)
            meta = self._meta.get(key)
            if meta is not None and meta[0] == priority:
                # Only the newest heap entry for a key is live.
                self._inflation = priority
                self._drop(key)
                return

    def _drop(self, key: Key) -> None:
        self.used -= self._meta.pop(key)[2]
        self._notify_evict(key)

    def _shrink(self, skip: Key) -> None:
        # Resizing an object upward can overflow the budget; evict
        # other objects (never the one just touched).  The skip entry
        # is set aside, not pushed back: when the resized object is
        # the minimum-priority live entry, an immediate push-back
        # would pop it again forever.
        skip_entry: Optional[Tuple[float, int, Key]] = None
        while self.used > self.capacity:
            if skip_entry is not None and len(self._meta) == 1:
                # Everything else is gone and the resized object
                # alone still does not fit: drop it too.  The evictions
                # above may have raised the clock past the stashed
                # priority; never wind it back.
                self._inflation = max(self._inflation, skip_entry[0])
                self._drop(skip)
                return
            priority, counter, key = heapq.heappop(self._heap)
            meta = self._meta.get(key)
            if meta is None or meta[0] != priority:
                continue
            if key == skip and len(self._meta) > 1:
                skip_entry = (priority, counter, key)
                continue
            # Another object -- or the resized one, alone and too big.
            self._inflation = priority
            self._drop(key)
        if skip_entry is not None:
            heapq.heappush(self._heap, skip_entry)

    def __contains__(self, key: Key) -> bool:
        return key in self._meta

    def __len__(self) -> int:
        return len(self._meta)


__all__ = ["GDSF"]

"""Plain FIFO eviction.

FIFO is the base of the paper's LEGO construction: no metadata updates
on hits, no promotion at all, eviction strictly in insertion order.  It
is the throughput/scalability gold standard (and flash-friendly: no
write amplification) but, alone, leaves a large miss-ratio headroom --
which Lazy Promotion and Quick Demotion close.

FIFO is also the normalisation baseline of Fig. 5: every algorithm's
efficiency is reported as its miss-ratio reduction from FIFO.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.base import EvictionPolicy, Key


class FIFO(EvictionPolicy):
    """First-in first-out eviction; hits touch nothing.

    The queue maps each resident key to its size, oldest first, and
    ``used`` is the sum of those sizes.  :class:`~repro.policies.lru.LRU`
    is this class plus a promotion on every hit.
    """

    name = "FIFO"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.used = 0
        self._queue: "OrderedDict[Key, int]" = OrderedDict()

    def request(self, key: Key, size: int = 1) -> bool:
        cached = self._queue.get(key)
        if cached is not None:
            if cached != size:
                self._resize(key, size)
            self._record(True)
            self._notify_hit(key)
            return True
        return self._miss(key, size)

    def _miss(self, key: Key, size: int) -> bool:
        """Count a miss and admit *key*, evicting from the old end."""
        self._check_size(size)
        self._record(False)
        if size > self.capacity:
            return False
        queue = self._queue
        while self.used + size > self.capacity:
            victim, victim_size = queue.popitem(last=False)
            self.used -= victim_size
            self._notify_evict(victim)
        queue[key] = size
        self.used += size
        self._notify_admit(key)
        return False

    def _resize(self, key: Key, size: int) -> None:
        """Give resident *key* a new size, keeping its position.

        Overflow evicts the oldest other objects; when *key* alone no
        longer fits, it is dropped too.
        """
        self._check_size(size)
        queue = self._queue
        self.used += size - queue[key]
        queue[key] = size
        while self.used > self.capacity:
            victim = (next(k for k in queue if k != key)
                      if len(queue) > 1 else key)
            self.used -= queue.pop(victim)
            self._notify_evict(victim)

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


__all__ = ["FIFO"]

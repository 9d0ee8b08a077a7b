"""S3-FIFO: Simple Scalable caching with three Static FIFO queues.

S3-FIFO is the algorithm this HotOS paper's ideas grew into (Yang et
al., SOSP'23 "FIFO queues are all you need for cache eviction").  It is
included here as the paper's envisioned "LEGO" future work: quick
demotion via a small FIFO + ghost, and lazy promotion via reinsertion
in the main FIFO.

Structure:

* **S** (small): 10 % of the cache space, a plain FIFO.
* **M** (main): 90 % of the cache space, a FIFO with lazy promotion --
  objects with a nonzero frequency counter are reinserted with the
  counter decremented instead of being evicted.
* **G** (ghost): metadata-only FIFO with as many entries as M.

Objects carry a 2-bit saturating frequency counter incremented on hits.
On eviction from S, objects requested more than once move to M; the
rest are evicted and remembered in G.  A miss found in G is admitted
directly into M.
"""

from __future__ import annotations

from repro.core.base import EvictionPolicy, Key
from repro.core.ghost import GhostQueue
from repro.utils.linkedlist import KeyedList

_MAX_FREQ = 3


class S3FIFO(EvictionPolicy):
    """The S3-FIFO eviction algorithm.

    Parameters mirror the original paper's defaults: a 10 % small
    queue, frequency saturating at 3, move-to-main threshold of "more
    than one access", and a ghost sized to the main queue.
    """

    name = "S3-FIFO"

    def __init__(
        self,
        capacity: int,
        small_fraction: float = 0.1,
        ghost_factor: float = 1.0,
    ) -> None:
        super().__init__(capacity)
        if capacity < 2:
            raise ValueError("S3FIFO needs capacity >= 2")
        if not 0.0 < small_fraction < 1.0:
            raise ValueError(
                f"small_fraction must be in (0, 1), got {small_fraction}")
        self.small_capacity = max(1, round(capacity * small_fraction))
        self.main_capacity = capacity - self.small_capacity
        if self.main_capacity < 1:
            self.main_capacity = 1
            self.small_capacity = capacity - 1
        self._small: KeyedList[Key] = KeyedList()
        self._main: KeyedList[Key] = KeyedList()
        self.ghost = GhostQueue(round(self.main_capacity * ghost_factor))

    # ------------------------------------------------------------------
    def request(self, key: Key, size: int = 1) -> bool:
        node = self._small.get(key)
        if node is None:
            node = self._main.get(key)
        if node is not None:
            if node.freq < _MAX_FREQ:
                node.freq += 1
            self._record(True)
            self._notify_hit(key)
            return True

        self._record(False)
        if self.ghost.remove(key):
            self._notify_ghost_hit(key)
            self._insert_main(key)
        else:
            self._insert_small(key)
        self._notify_admit(key)
        return False

    # ------------------------------------------------------------------
    def _insert_small(self, key: Key) -> None:
        while len(self._small) >= self.small_capacity:
            self._evict_from_small()
        self._small.push_head(key)

    def _insert_main(self, key: Key) -> None:
        while len(self._main) >= self.main_capacity:
            self._evict_from_main()
        self._main.push_head(key)

    def _evict_from_small(self) -> None:
        """Pop S's tail: graduate hot objects to M, ghost the rest."""
        node = self._small.pop_tail()
        if node.freq > 1:
            node.freq = 0
            while len(self._main) >= self.main_capacity:
                self._evict_from_main()
            self._main.push_head_node(node)
            self._promoted(key=node.key)
        else:
            self.ghost.add(node.key)
            self._notify_evict(node.key)

    def _evict_from_main(self) -> None:
        """Pop M's tail with lazy promotion: reinsert while freq > 0."""
        while True:
            node = self._main.pop_tail()
            if node.freq > 0:
                node.freq -= 1
                self._main.push_head_node(node)
                self._promoted(key=node.key)
            else:
                self._notify_evict(node.key)
                return

    # ------------------------------------------------------------------
    def __contains__(self, key: Key) -> bool:
        return key in self._small or key in self._main

    def __len__(self) -> int:
        return len(self._small) + len(self._main)

    def in_small(self, key: Key) -> bool:
        """Whether *key* is in the small (probationary) FIFO."""
        return key in self._small

    def in_main(self, key: Key) -> bool:
        """Whether *key* is in the main FIFO."""
        return key in self._main


__all__ = ["S3FIFO"]

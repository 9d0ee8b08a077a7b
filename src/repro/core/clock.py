"""Lazy Promotion on top of FIFO: the LP-FIFO family (paper §3).

Lazy Promotion performs promotion only at eviction time.  The canonical
example is **FIFO-Reinsertion** (equivalently 1-bit CLOCK or Second
Chance): a cache hit merely sets a boolean on the object -- no queue
manipulation, no locking -- and when the object reaches the eviction end
of the FIFO queue it is reinserted at the head if that boolean is set.

The paper's large-scale study shows these "weak LRUs" are in fact *more*
efficient than LRU on most block and web traces, for two reasons:

1. Lazy promotion implies quick demotion: a newly-inserted object is
   pushed toward eviction both by objects requested after it *and* by
   not-yet-promoted objects requested before it (Fig. 2e).
2. The near-insertion ordering suits workloads with popularity decay.

:class:`KBitClock` generalises the visited bit to a small saturating
counter.  The paper's **2-bit CLOCK** tracks frequency up to three and
decrements by one each time the CLOCK hand scans past, evicting objects
whose counter reached zero.  The extra bit helps on high-reuse
(social-network-like) workloads where one bit cannot separate warm from
hot objects.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import EvictionPolicy, Key
from repro.utils.linkedlist import KeyedList, Node


class KBitClock(EvictionPolicy):
    """CLOCK with a *bits*-wide saturating frequency counter.

    ``bits=1`` is :class:`FIFOReinsertion`; ``bits=2`` is the paper's
    2-bit CLOCK: frequency saturates at 3, the hand decrements on scan,
    and zero-frequency objects are evicted.

    An object's counter starts at zero on insertion; each hit increments
    it (saturating); each hand pass over a nonzero object decrements it
    and rotates the object back to the head.  Each node keeps its
    object's size in ``extra``.  This terminates: each rotation lowers a
    counter, so after at most ``max_freq`` passes a zero is found.
    """

    def __init__(self, capacity: int, bits: int = 2) -> None:
        super().__init__(capacity)
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.bits = bits
        self.max_freq = (1 << bits) - 1
        self.name = f"{bits}-bit-CLOCK"
        self.used = 0
        self._queue: KeyedList[Key] = KeyedList()

    def request(self, key: Key, size: int = 1) -> bool:
        node = self._queue.get(key)
        if node is not None:
            if node.freq < self.max_freq:
                node.freq += 1
            if node.extra != size:
                self._check_size(size)
                self.used += size - node.extra
                node.extra = size
                self._make_room(0, keep=node)
            self._record(True)
            self._notify_hit(key)
            return True
        self._check_size(size)
        self._record(False)
        if size > self.capacity:
            return False
        self._make_room(size)
        self._queue.push_head(key).extra = size
        self.used += size
        self._notify_admit(key)
        return False

    def _make_room(self, size: int, keep: Optional[Node] = None) -> None:
        """Run the hand until *size* more units fit.

        *keep* is a just-resized resident: the hand rotates past it
        unless it is the only object left, in which case it no longer
        fits on its own and is dropped.
        """
        queue = self._queue
        while self.used + size > self.capacity:
            node = queue.pop_tail()
            if node is keep and len(queue):
                queue.push_head_node(node)
            elif node.freq > 0 and node is not keep:
                node.freq -= 1
                queue.push_head_node(node)
                self._promoted(key=node.key)
            else:
                self.used -= node.extra
                self._notify_evict(node.key)

    def resize(self, new_capacity: int) -> None:
        """Change the capacity at runtime (evicting if shrinking).

        Used by the adaptive QD wrapper, which moves byte/slot budget
        between the probationary queue and the main CLOCK online.
        """
        if new_capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {new_capacity}")
        self.capacity = int(new_capacity)
        self._make_room(0)

    def __contains__(self, key: Key) -> bool:
        return key in self._queue

    def __len__(self) -> int:
        return len(self._queue)


class FIFOReinsertion(KBitClock):
    """FIFO-Reinsertion == 1-bit CLOCK == Second Chance.

    Requests to cached objects only set the node's one-bit counter --
    the object is *not* moved.  At eviction time the tail object is
    examined: if set, the bit is cleared and the object is reinserted
    at the head (the lazy promotion); otherwise it is evicted.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity, bits=1)
        self.name = "FIFO-Reinsertion"


def two_bit_clock(capacity: int) -> KBitClock:
    """Factory for the paper's 2-bit CLOCK configuration."""
    return KBitClock(capacity, bits=2)


__all__ = ["FIFOReinsertion", "KBitClock", "two_bit_clock"]

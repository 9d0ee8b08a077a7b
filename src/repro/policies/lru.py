"""Least Recently Used eviction.

LRU is the reference point the paper argues against: every hit eagerly
promotes the object to the queue head (six pointer updates under a lock
in a real doubly-linked-list implementation), and demotion happens only
passively as other objects are promoted past it -- which is exactly why
unpopular new objects linger so long (§2).
"""

from __future__ import annotations

from repro.core.base import Key
from repro.policies.fifo import FIFO


class LRU(FIFO):
    """Classic LRU: :class:`~repro.policies.fifo.FIFO` plus promotion.

    The ``OrderedDict`` back end keeps the implementation honest: a hit
    costs a ``move_to_end`` (the eager promotion) and eviction pops the
    least-recent end.
    """

    name = "LRU"

    def request(self, key: Key, size: int = 1) -> bool:
        cached = self._queue.get(key)
        if cached is not None:
            self._queue.move_to_end(key)
            self._promoted(key=key)
            if cached != size:
                self._resize(key, size)
            self._record(True)
            self._notify_hit(key)
            return True
        return self._miss(key, size)

    def victim(self) -> Key:
        """The key that would be evicted next; ``KeyError`` if empty."""
        return next(iter(self._queue))


__all__ = ["LRU"]

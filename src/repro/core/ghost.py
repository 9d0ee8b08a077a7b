"""Bounded metadata-only ghost queue (paper §4, Fig. 4).

A ghost queue remembers the identity -- not the data -- of recently
evicted objects.  The Quick Demotion wrapper uses a FIFO ghost sized to
as many units as the main cache (entries at unit size, the bytes the
entries represent in a sized cache): an arriving miss whose key is found
in the ghost is judged "wrongly demoted once already" and admitted
straight into the main cache instead of the probationary queue.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator

Key = Hashable


class GhostQueue:
    """A FIFO set of keys bounded by the units they represent.

    Each entry remembers its object's size (1 by default, so the bound
    is an entry count); the oldest entries fall off once the total
    exceeds ``capacity``, but at least one entry always stays, so even
    an object larger than the budget is remembered once.  Re-adding an
    existing key refreshes its position (moves it to the young end) and
    its size, matching the behaviour of ghost queues in ARC/2Q-style
    implementations.  ``capacity == 0`` produces a permanently empty
    ghost, useful for ablations that disable history.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.used = 0
        self._entries: "OrderedDict[Key, int]" = OrderedDict()

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Key]:
        """Iterate keys oldest -> youngest."""
        return iter(self._entries)

    def add(self, key: Key, size: int = 1) -> None:
        """Record *key*; the oldest entries fall off the budget."""
        if self.capacity == 0:
            return
        entries = self._entries
        self.used += size - entries.pop(key, 0)
        entries[key] = size
        while self.used > self.capacity and len(entries) > 1:
            self.used -= entries.popitem(last=False)[1]

    def remove(self, key: Key) -> bool:
        """Forget *key*.  Returns whether it was present."""
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self.used -= size
        return True

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()
        self.used = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GhostQueue {self.used}/{self.capacity}>"


__all__ = ["GhostQueue"]

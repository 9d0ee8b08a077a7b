"""Quick Demotion wrapper (paper §4, Fig. 4).

Cache workloads are Zipf-distributed: most objects are unpopular, and
letting every new object traverse the whole cache before eviction wastes
space that popular objects could use.  *Quick Demotion* evicts most new
objects quickly by inserting misses into a small **probationary FIFO**
(10 % of the cache space by default).  Objects not requested again
before reaching the probationary queue's tail are evicted early and
remembered in a metadata-only **ghost FIFO** holding as many entries as
the main cache; objects that were requested are moved into the **main
cache**, which runs any eviction algorithm (ARC, LIRS, LHD, ... or a
2-bit CLOCK for :class:`~repro.core.qdlpfifo.QDLPFIFO`).  A miss whose
key is found in the ghost skips probation and enters the main cache
directly -- it already proved itself once.

The wrapper is itself an :class:`~repro.core.base.EvictionPolicy`, so QD
caches compose transparently with the simulator, profiler and analysis
pipeline.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.base import CacheListener, EvictionPolicy, Key
from repro.core.ghost import GhostQueue
from repro.utils.linkedlist import KeyedList, Node

#: Factory building the main-cache policy from its capacity.
MainFactory = Callable[[int], EvictionPolicy]


class _EvictForwarder(CacheListener):
    """Re-emits the inner main cache's evictions as wrapper evictions.

    Admit events from the inner cache are deliberately *not* forwarded:
    the wrapper emits its own admits, and a probation -> main move must
    not look like a fresh admission (the object never left the cache).
    """

    def __init__(self, owner: "QDCache") -> None:
        self._owner = owner

    def on_evict(self, key: Key) -> None:
        self._owner._notify_evict(key)


class QDCache(EvictionPolicy):
    """Add a probationary FIFO + ghost FIFO in front of any policy.

    Parameters
    ----------
    capacity:
        Total units the composite cache may hold (objects at unit size,
        bytes in a sized cache).
    main_factory:
        Builds the main-cache policy given its capacity (90 % of the
        total by default).  The wrapper passes each request's ``size``
        on to it.
    probation_fraction:
        Fraction of ``capacity`` given to the probationary FIFO.  The
        paper uses 0.1; the ablation benchmark sweeps this.
    ghost_factor:
        Ghost entries as a multiple of the main cache's capacity.  The
        paper uses 1.0 ("as many entries as the main cache").

    With real sizes, two rules are size-specific: an object too large
    for the probationary queue is admitted straight into the main cache
    (it could never prove itself in probation), and the ghost is
    bounded by the units its entries represent.
    """

    def __init__(
        self,
        capacity: int,
        main_factory: MainFactory,
        probation_fraction: float = 0.1,
        ghost_factor: float = 1.0,
    ) -> None:
        super().__init__(capacity)
        if capacity < 2:
            raise ValueError("QDCache needs capacity >= 2 (one probation slot "
                             "plus one main slot)")
        if not 0.0 < probation_fraction < 1.0:
            raise ValueError(
                f"probation_fraction must be in (0, 1), got {probation_fraction}")
        if ghost_factor < 0.0:
            raise ValueError(f"ghost_factor must be >= 0, got {ghost_factor}")

        self.probation_capacity = max(1, round(capacity * probation_fraction))
        self.main_capacity = capacity - self.probation_capacity
        if self.main_capacity < 1:
            # Tiny caches: always keep at least one main slot.
            self.main_capacity = 1
            self.probation_capacity = capacity - 1

        self.main = main_factory(self.main_capacity)
        self.main.add_listener(_EvictForwarder(self))
        self.ghost = GhostQueue(round(self.main_capacity * ghost_factor))
        self._probation: KeyedList[Key] = KeyedList()  # node.extra = size
        self._probation_used = 0
        self.name = f"QD-{self.main.name}"

    # ------------------------------------------------------------------
    # EvictionPolicy interface
    # ------------------------------------------------------------------
    def request(self, key: Key, size: int = 1) -> bool:
        node = self._probation.get(key)
        if node is not None:
            # Lazy promotion inside probation: a hit only marks the
            # object; whether it graduates to the main cache is decided
            # when it reaches the probationary tail.
            node.visited = True
            if node.extra != size:
                self._check_size(size)
                self._probation_used += size - node.extra
                node.extra = size
                self._drain(0, keep=node)
            self._record(True)
            self._notify_hit(key)
            return True
        if key in self.main:
            self.main.request(key, size)
            self._record(True)
            self._notify_hit(key)
            return True

        self._check_size(size)
        self._record(False)
        if not self.admits(size):
            return False
        if self.ghost.remove(key):
            # Seen (and demoted) before: admit straight into the main
            # cache -- the quick-demotion filter was wrong about it once.
            self._notify_ghost_hit(key)
        elif size <= self.probation_capacity:
            self._drain(size)
            self._probation.push_head(key).extra = size
            self._probation_used += size
            self._notify_admit(key)
            return False
        self.main.request(key, size)
        if key in self.main:
            self._notify_admit(key)
        return False

    def _drain(self, size: int, keep: Optional[Node] = None) -> None:
        """Demote from the probationary tail until *size* more units fit.

        Accessed-since-insertion objects graduate to the main cache (no
        event: they never left the composite cache, unless the main
        cache refuses them); untouched objects are evicted for good and
        remembered in the ghost.  *keep* is a just-resized resident: it
        is rotated to the head unless it is the last object, in which
        case it graduates.
        """
        probation = self._probation
        while self._probation_used + size > self.probation_capacity:
            node = probation.pop_tail()
            if node is keep and len(probation):
                probation.push_head_node(node)
                continue
            self._probation_used -= node.extra
            if node.visited:
                self.main.request(node.key, node.extra)
                self._promoted(key=node.key)
                if node.key not in self.main:
                    self._notify_evict(node.key)
            else:
                self.ghost.add(node.key, node.extra)
                self._notify_evict(node.key)

    @property
    def used(self) -> int:
        """Units in use across probation and the main cache."""
        return self._probation_used + self.main.used

    def admits(self, size: int) -> bool:
        """An object must fit one of the two segments to be cacheable."""
        return size <= max(self.main_capacity, self.probation_capacity)

    def __contains__(self, key: Key) -> bool:
        return key in self._probation or key in self.main

    def __len__(self) -> int:
        return len(self._probation) + len(self.main)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and examples)
    # ------------------------------------------------------------------
    @property
    def promotion_count(self) -> int:
        """Wrapper reorderings plus the main cache's own."""
        return self.stats.promotions + self.main.promotion_count

    @property
    def probation_keys(self):
        """Keys currently in the probationary FIFO, newest first."""
        return list(self._probation.keys())

    def in_probation(self, key: Key) -> bool:
        """Whether *key* currently sits in the probationary FIFO."""
        return key in self._probation

    def in_main(self, key: Key) -> bool:
        """Whether *key* currently sits in the main cache."""
        return key in self.main


def wrap_with_qd(
    main_factory: MainFactory,
    probation_fraction: float = 0.1,
    ghost_factor: float = 1.0,
) -> MainFactory:
    """Lift a policy factory into its QD-enhanced counterpart.

    >>> from repro.policies.arc import ARC
    >>> qd_arc = wrap_with_qd(ARC)  # doctest: +SKIP
    >>> cache = qd_arc(1000)        # doctest: +SKIP
    """

    def factory(capacity: int) -> QDCache:
        return QDCache(
            capacity,
            main_factory,
            probation_fraction=probation_fraction,
            ghost_factor=ghost_factor,
        )

    return factory


__all__ = ["QDCache", "wrap_with_qd", "MainFactory"]

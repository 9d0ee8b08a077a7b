"""Admission control between tiers (what gets *written* downward).

Demotion-on-eviction turns every upper-tier eviction into a potential
lower-tier write; on flash that write is the expensive operation the
whole hierarchy exists to avoid.  An admission controller decides, per
demoted object, whether the write happens:

* :class:`AdmitAll` -- every demotion is written (the baseline the X7
  experiment measures against).
* :class:`GhostAdmission` -- probationary: the first demotion of an
  object is only *remembered* (metadata ghost, no data write); a
  repeat demotion while the ghost still remembers it is admitted.
  One-hit wonders -- quickly demoted, never seen again -- thus never
  consume a flash write, which is the quick-demotion story told at the
  tier boundary.
* :class:`FrequencyAdmission` -- admit once an object has been seen
  ``threshold`` times (demotions *and* lookups count as sightings),
  TinyLFU-style but with an exact bounded counter table instead of a
  sketch, for determinism.

Controllers are built by :func:`make_admission` from the spec names
:class:`~repro.hierarchy.config.TierConfig` validates
(``admit-all`` / ``ghost`` / ``frequency``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Hashable

from repro.core.ghost import GhostQueue

Key = Hashable


class AdmissionController(ABC):
    """Decides whether a demoted object is written into a tier."""

    name: str = "abstract"

    @abstractmethod
    def admit(self, key: Key, size: int) -> bool:
        """Whether this demotion of *key* should be written."""

    def record_lookup(self, key: Key, size: int) -> None:
        """Observe a lookup for *key* at this tier (default: ignored)."""

    def forget(self, key: Key) -> None:
        """Drop any memory of *key* (default: nothing to drop)."""


class AdmitAll(AdmissionController):
    """Every demotion is admitted."""

    name = "admit-all"

    def admit(self, key: Key, size: int) -> bool:
        return True


class GhostAdmission(AdmissionController):
    """Probationary admission: reject-and-remember, admit on repeat.

    The ghost (:class:`~repro.core.ghost.GhostQueue`) is bounded by the
    bytes its entries represent, at ``ghost_factor`` times the tier's
    capacity, so its memory horizon scales with the tier exactly like
    the QD wrapper's ghost scales with its main cache.
    """

    name = "ghost"

    def __init__(self, capacity_bytes: int,
                 ghost_factor: float = 1.0) -> None:
        if ghost_factor <= 0:
            raise ValueError(
                f"ghost_factor must be > 0, got {ghost_factor}")
        self.ghost = GhostQueue(max(1, round(capacity_bytes * ghost_factor)))

    def admit(self, key: Key, size: int) -> bool:
        if self.ghost.remove(key):
            return True
        self.ghost.add(key, size)
        return False

    def forget(self, key: Key) -> None:
        self.ghost.remove(key)


class FrequencyAdmission(AdmissionController):
    """Admit once *key* has been sighted ``threshold`` times.

    Sightings are demotion attempts plus tier lookups.  The counter
    table is bounded to ``max_entries`` keys, evicting the least
    recently sighted entry, so the controller's memory cannot grow
    with the trace.
    """

    name = "frequency"

    def __init__(self, threshold: int = 2,
                 max_entries: int = 65536) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}")
        self.threshold = threshold
        self.max_entries = max_entries
        self._counts: "OrderedDict[Key, int]" = OrderedDict()

    def _sight(self, key: Key) -> int:
        count = self._counts.pop(key, 0) + 1
        self._counts[key] = count
        while len(self._counts) > self.max_entries:
            self._counts.popitem(last=False)
        return count

    def admit(self, key: Key, size: int) -> bool:
        if self._sight(key) >= self.threshold:
            self.forget(key)
            return True
        return False

    def record_lookup(self, key: Key, size: int) -> None:
        self._sight(key)

    def forget(self, key: Key) -> None:
        self._counts.pop(key, None)


def make_admission(spec: str, capacity_bytes: int,
                   **params: object) -> AdmissionController:
    """Build the admission controller *spec* names for a tier.

    ``capacity_bytes`` is the owning tier's budget (sizes the ghost);
    *params* are the controller's own knobs (``ghost_factor``,
    ``threshold``, ``max_entries``).  Unknown specs raise ``KeyError``
    listing the valid names; bad parameters raise ``TypeError`` naming
    the controller.
    """
    factories = {
        "admit-all": lambda **kw: AdmitAll(**kw),
        "ghost": lambda **kw: GhostAdmission(capacity_bytes, **kw),
        "frequency": lambda **kw: FrequencyAdmission(**kw),
    }
    factory = factories.get(spec)
    if factory is None:
        raise KeyError(
            f"unknown admission controller {spec!r} "
            f"(known: {', '.join(sorted(factories))})")
    try:
        return factory(**params)
    except TypeError as exc:
        raise TypeError(
            f"admission controller {spec!r} rejected parameters "
            f"{sorted(params)}: {exc}") from exc


__all__ = [
    "AdmissionController",
    "AdmitAll",
    "GhostAdmission",
    "FrequencyAdmission",
    "make_admission",
]

"""One storage tier: a sized policy plus demotion/write accounting.

A :class:`Tier` wraps a policy built through the unified registry
(:func:`~repro.policies.registry.make_sized`), fed ``request(key,
size)`` against a byte budget, and adds what the hierarchy needs
around it:

* an eviction buffer -- the policy's
  :class:`~repro.core.base.CacheListener` evictions are captured, with
  the size the tier last wrote for each key, so the hierarchy can
  *demote* victims into the next tier instead of losing them;
* an admission controller gating demotions into this tier;
* :class:`TierStats`: per-tier lookup/hit accounting (a plain
  :class:`~repro.sized.base.SizedStats`, so ``hits + misses ==
  lookups`` holds by construction) plus demotion and write counters,
  from which flash write amplification is derived;
* optional :class:`~repro.obs.metrics.MetricsRegistry` wiring with a
  ``tier=<name>`` label on every metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.base import CacheListener
from repro.hierarchy.admission import make_admission
from repro.hierarchy.config import TierConfig
from repro.obs.metrics import MetricsRegistry
from repro.policies.registry import make_sized
from repro.sized.base import SizedStats

Key = Hashable

#: Demotion outcomes at the receiving tier.
ADMITTED = "admitted"      # written into the tier (a data write)
REFRESHED = "refreshed"    # already resident: no data write needed
REJECTED = "rejected"      # admission controller (or size) said no


@dataclass
class TierStats:
    """Per-tier accounting: lookups, demotions, writes.

    ``sized`` carries the request-level invariant (``hits + misses ==
    lookups``); the demotion counters carry the between-tier one
    (demotions out of tier *i* == admitted + refreshed + rejected at
    tier *i+1*); the write counters feed write amplification.
    """

    sized: SizedStats = field(default_factory=SizedStats)
    demoted_in_admitted: int = 0
    demoted_in_refreshed: int = 0
    demoted_in_rejected: int = 0
    demoted_out: int = 0
    writes: int = 0
    write_bytes: int = 0
    first_copy_bytes: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Requests that probed this tier."""
        return self.sized.requests

    @property
    def hits(self) -> int:
        return self.sized.hits

    @property
    def misses(self) -> int:
        return self.sized.misses

    @property
    def hit_ratio(self) -> float:
        total = self.sized.requests
        return self.sized.hits / total if total else 0.0

    @property
    def demoted_in(self) -> int:
        """Demotion attempts arriving at this tier, all outcomes."""
        return (self.demoted_in_admitted + self.demoted_in_refreshed
                + self.demoted_in_rejected)

    @property
    def write_amplification(self) -> float:
        """Bytes written per byte of distinct data ever written.

        1.0 means every write was the first copy of its object;
        rewrites (churn re-admitted after eviction, promotion copies
        re-demoted) push it up.  0.0 when nothing was written.
        """
        if self.first_copy_bytes == 0:
            return 0.0
        return self.write_bytes / self.first_copy_bytes


class _EvictionBuffer(CacheListener):
    """Captures the wrapped policy's evictions for the hierarchy.

    ``sizes`` holds the size of every key the tier has handed to the
    policy, set *before* each call, so an object that a resize makes
    too big for the tier leaves with its new size.
    """

    def __init__(self) -> None:
        self.sizes: Dict[Key, int] = {}
        self.evicted: List[Tuple[Key, int]] = []

    def on_evict(self, key: Key) -> None:
        self.evicted.append((key, self.sizes.pop(key)))


class Tier:
    """A named storage level inside a :class:`CacheHierarchy`."""

    def __init__(self, config: TierConfig,
                 registry: Optional[MetricsRegistry] = None,
                 extra_labels: Optional[Dict[str, str]] = None) -> None:
        self.config = config
        self.name = config.name
        self.policy = make_sized(config.policy, config.capacity_bytes,
                                 **config.policy_kwargs)
        self.admission = make_admission(config.admission,
                                        config.capacity_bytes,
                                        **config.admission_kwargs)
        self.stats = TierStats()
        self._buffer = _EvictionBuffer()
        self.policy.add_listener(self._buffer)
        self._written_keys: Set[Key] = set()
        self._metrics = None
        if registry is not None:
            labels = dict(extra_labels or {})
            labels["tier"] = config.name
            self._metrics = {
                "lookups": registry.counter(
                    "hierarchy_lookups_total",
                    help="requests probing this tier", **labels),
                "hits": registry.counter(
                    "hierarchy_hits_total",
                    help="requests served by this tier", **labels),
                "demotions": {
                    outcome: registry.counter(
                        "hierarchy_demotions_total",
                        help="demotions arriving at this tier",
                        outcome=outcome, **labels)
                    for outcome in (ADMITTED, REFRESHED, REJECTED)},
                "write_bytes": registry.counter(
                    "hierarchy_write_bytes_total",
                    help="bytes written into this tier", **labels),
                "used_bytes": registry.gauge(
                    "hierarchy_used_bytes",
                    help="bytes currently resident", **labels),
            }

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self.policy.used

    @property
    def capacity_bytes(self) -> int:
        return self.policy.capacity

    def __contains__(self, key: Key) -> bool:
        return key in self.policy

    def __len__(self) -> int:
        return len(self.policy)

    def take_evicted(self) -> List[Tuple[Key, int]]:
        """Drain and return evictions since the last call."""
        evicted = self._buffer.evicted
        if evicted:
            self._buffer.evicted = []
            self.stats.evictions += len(evicted)
            self.stats.evicted_bytes += sum(size for _, size in evicted)
        return evicted

    def _request(self, key: Key, size: int) -> None:
        self._buffer.sizes[key] = size
        self.policy.request(key, size)

    # ------------------------------------------------------------------
    def lookup(self, key: Key, size: int) -> bool:
        """Probe this tier; a hit refreshes the policy's recency state."""
        hit = key in self.policy
        if hit:
            self._request(key, size)
        else:
            self.admission.record_lookup(key, size)
        self.stats.sized.record(hit, size)
        if self._metrics is not None:
            self._metrics["lookups"].inc()
            if hit:
                self._metrics["hits"].inc()
            self._metrics["used_bytes"].set(self.policy.used)
        return hit

    def insert(self, key: Key, size: int) -> bool:
        """Write *key* into this tier (backend fill or promotion copy).

        Bypasses admission control -- the hierarchy only calls this on
        the top tier (a fetched/promoted object must land somewhere).
        Returns whether a data write happened (already-resident keys
        are refreshed for free).
        """
        if key in self.policy:
            self._request(key, size)
            return False
        if not self.policy.admits(size):
            return False
        self._request(key, size)
        if key not in self.policy:  # pragma: no cover - defensive
            self._buffer.sizes.pop(key, None)
            return False
        self._count_write(key, size)
        return True

    def demote_in(self, key: Key, size: int) -> str:
        """A victim demoted from the tier above arrives here.

        Returns the outcome (:data:`ADMITTED` -- a data write --,
        :data:`REFRESHED` or :data:`REJECTED`).
        """
        if key in self.policy:
            self._request(key, size)
            outcome = REFRESHED
            self.stats.demoted_in_refreshed += 1
        elif not self.policy.admits(size):
            outcome = REJECTED
            self.stats.demoted_in_rejected += 1
        elif self.admission.admit(key, size):
            self._request(key, size)
            self._count_write(key, size)
            outcome = ADMITTED
            self.stats.demoted_in_admitted += 1
        else:
            outcome = REJECTED
            self.stats.demoted_in_rejected += 1
        if self._metrics is not None:
            self._metrics["demotions"][outcome].inc()
            self._metrics["used_bytes"].set(self.policy.used)
        return outcome

    def _count_write(self, key: Key, size: int) -> None:
        self.stats.writes += 1
        self.stats.write_bytes += size
        if key not in self._written_keys:
            self._written_keys.add(key)
            self.stats.first_copy_bytes += size
        if self._metrics is not None:
            self._metrics["write_bytes"].inc(size)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on a broken tier-local invariant."""
        assert self.stats.sized.hits + self.stats.sized.misses == \
            self.stats.lookups, (
                f"tier {self.name}: hits+misses != lookups")
        assert self.used_bytes <= self.capacity_bytes, (
            f"tier {self.name}: used {self.used_bytes} exceeds "
            f"budget {self.capacity_bytes}")
        assert self.used_bytes >= 0, (
            f"tier {self.name}: negative used_bytes")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Tier {self.name!r} policy={self.policy.name!r} "
                f"bytes={self.used_bytes}/{self.capacity_bytes}>")


__all__ = ["ADMITTED", "REFRESHED", "REJECTED", "TierStats", "Tier"]

"""Simulation for size-aware policies."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import EvictionPolicy
from repro.sized.base import SizedStats
from repro.sized.workloads import SizedTrace


@dataclass(frozen=True)
class SizedSimResult:
    """Outcome of one sized simulation run."""

    policy: str
    requests: int
    misses: int
    miss_bytes: int
    total_bytes: int

    @property
    def miss_ratio(self) -> float:
        """Object (request-count) miss ratio."""
        if self.requests == 0:
            return 0.0
        return self.misses / self.requests

    @property
    def byte_miss_ratio(self) -> float:
        """Byte-weighted miss ratio."""
        if self.total_bytes == 0:
            return 0.0
        return self.miss_bytes / self.total_bytes


def simulate_sized(policy: EvictionPolicy,
                   sized: SizedTrace) -> SizedSimResult:
    """Replay a (keys, sizes) trace through a size-aware policy."""
    keys, sizes = sized
    if len(keys) != len(sizes):
        raise ValueError("keys and sizes must have equal length")
    stats = SizedStats()
    request, record = policy.request, stats.record
    for key, size in zip(keys, sizes):
        record(request(key, size), size)
    return SizedSimResult(
        policy=policy.name,
        requests=stats.requests,
        misses=stats.misses,
        miss_bytes=stats.miss_bytes,
        total_bytes=stats.hit_bytes + stats.miss_bytes,
    )


__all__ = ["SizedSimResult", "simulate_sized"]

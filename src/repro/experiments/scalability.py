"""Experiment X3 -- thread scalability under lock contention (§1-2).

The paper: LRU's per-hit locked promotion makes the list head a
contention point, while FIFO-family policies need no lock on the hit
path and scale with thread count.  This experiment is a saturation run
of the open-loop engine (:func:`~repro.service.overload.run_open_loop`),
whose :class:`~repro.service.overload.ServiceCostModel` is the repo's
one lock-contention model.  For each (policy, T) cell:

* a :class:`~repro.service.service.CacheService` on a
  :class:`~repro.exec.clock.VirtualClock` is warmed with the workload's
  first ``warmup`` requests, so every T starts from the same steady
  state;
* the next ``T * requests_per_thread`` requests all arrive at t=0 into
  a deep FIFO admission queue with no deadline, and a
  ``StaticLimiter(T)`` lets T of them run at once -- T closed-loop
  threads, each picking up the next request as soon as it finishes;
* every request costs ``base_cost`` of parallel work, and each
  promotion the policy performs holds the one global lock for
  ``promotion_cost``.  A miss takes no lock (the engine charges only
  promotions to the lock timeline).

Throughput is served requests over the virtual makespan; lock
utilisation is the lock's busy time over the same makespan.

Expected shape: FIFO and SIEVE (no promotions) scale exactly with T;
the lazy-promotion policies scale until their rare reinsertions fill
the lock; LRU and ARC saturate at ``1 / (promotions/req *
promotion_cost)`` -- the paper's scalability argument, quantified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.tables import render_table
from repro.exec.clock import VirtualClock
from repro.experiments.common import write_result
from repro.policies.registry import make
from repro.service.backend import InMemoryBackend
from repro.service.overload import (
    AdmissionQueue,
    ServiceCostModel,
    StaticLimiter,
    run_open_loop,
)
from repro.service.service import CacheService
from repro.traces.synthetic import zipf_trace

POLICIES = ["FIFO", "FIFO-Reinsertion", "2-bit-CLOCK", "SIEVE",
            "QD-LP-FIFO", "LRU", "ARC"]
THREADS = (1, 2, 4, 8, 16, 32)

#: One time unit of parallel work per request; each promotion holds
#: the global lock for 0.6 of a unit.  Misses pay no backend time, so
#: the lock is the only thing that can stop throughput scaling.
COST = ServiceCostModel(base_cost=1.0, miss_penalty=0.0,
                        promotion_cost=0.6)


@dataclass(frozen=True)
class ScalingPoint:
    """One (policy, T) cell of the saturation run."""

    threads: int
    throughput: float          # served requests per virtual time unit
    lock_utilisation: float    # fraction of the makespan the lock was held
    promotions_per_request: float


@dataclass
class ScalabilityResult:
    """Throughput-vs-threads curves per policy."""

    curves: Dict[str, List[ScalingPoint]]
    thread_counts: Sequence[int] = THREADS

    def speedup(self, policy: str, threads: int) -> float:
        """Throughput at *threads* relative to the policy's own T=1."""
        points = {p.threads: p for p in self.curves[policy]}
        return points[threads].throughput / points[1].throughput

    def render(self) -> str:
        top = self.thread_counts[-1]
        headers = (["policy"]
                   + [f"T={t}" for t in self.thread_counts]
                   + [f"speedup@{top}", f"lock util@{top}",
                      f"promotions/req@{top}"])
        body = []
        for name, points in self.curves.items():
            row = [name]
            row += [p.throughput for p in points]
            row.append(self.speedup(name, top))
            row.append(points[-1].lock_utilisation)
            row.append(points[-1].promotions_per_request)
            body.append(row)
        return render_table(
            headers, body,
            title="X3: throughput (requests/time-unit) vs thread count, "
                  "promotions serialised on one global lock",
            precision=2)


def measure(policy: str, capacity: int, warmup: Sequence,
            keys: Sequence, threads: int) -> ScalingPoint:
    """Run one saturation cell: *keys* from *threads* workers."""
    if threads < 1:
        raise ValueError(f"thread counts must be >= 1, got {threads}")
    clock = VirtualClock()
    service = CacheService(make(policy, capacity), InMemoryBackend(),
                           clock=clock)
    for key in warmup:
        service.put(key, key)
    report = run_open_loop(
        get=service.get,
        arrivals=[0.0] * len(keys),
        keys=keys,
        clock=clock,
        queue=AdmissionQueue(capacity=len(keys)),
        limiter=StaticLimiter(threads),
        cost=COST,
        promotions_probe=lambda: service.policy.promotion_count,
    )
    makespan = clock.now()
    return ScalingPoint(
        threads=threads,
        throughput=report.served / makespan,
        lock_utilisation=report.lock_busy / makespan,
        promotions_per_request=report.promotions / len(keys),
    )


def run(
    num_objects: int = 2000,
    alpha: float = 1.1,
    seed: int = 5,
    thread_counts: Sequence[int] = THREADS,
    requests_per_thread: int = 500,
    warmup: int = 20_000,
) -> ScalabilityResult:
    """Saturate each policy's service at each thread count."""
    rng = np.random.default_rng(seed)
    longest = max(thread_counts) * requests_per_thread
    keys = zipf_trace(num_objects, warmup + longest, alpha, rng).tolist()
    warm, measured = keys[:warmup], keys[warmup:]
    capacity = num_objects // 2

    curves = {
        name: [measure(name, capacity, warm,
                       measured[:threads * requests_per_thread], threads)
               for threads in thread_counts]
        for name in POLICIES
    }
    result = ScalabilityResult(curves=curves,
                               thread_counts=tuple(thread_counts))
    write_result("scalability", result.render())
    return result


__all__ = ["COST", "POLICIES", "THREADS", "ScalabilityResult",
           "ScalingPoint", "measure", "run"]

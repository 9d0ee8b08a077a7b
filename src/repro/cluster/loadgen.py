"""Closed-loop load harness for a :class:`CacheCluster`.

The cluster counterpart of :mod:`repro.service.loadgen`: replays a key
sequence through the router from ``threads`` workers, then returns the
same :class:`~repro.service.loadgen.LoadReport` with cluster-wide
outcome counts (all six, including ``replica_hit``), latency
percentiles, availability and per-shard breakdowns.

Two additions the single-node harness does not need:

* **Phase checkpoints** -- outage experiments want before/during/after
  accounting around a kill window.  ``checkpoints`` is a list of
  virtual-clock times; the deterministic single-threaded mode snapshots
  the cluster counters the first time the clock crosses each one, and
  :meth:`LoadReport.phases` turns consecutive snapshots into
  per-phase deltas.
* **Tick pacing on absolute deadlines** -- requests are scheduled at
  ``origin + i * tick`` via :meth:`Clock.sleep_until`, so injected
  backend latencies never skew the schedule and a kill window at
  virtual time *t* always lands on the same request index.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.service.loadgen import SERVED, LoadInterrupted, LoadReport
from repro.service.overload import (
    AdmissionQueue,
    ArrivalSchedule,
    ConcurrencyLimiter,
    OpenLoadReport,
    ServiceCostModel,
    StaticLimiter,
    run_open_loop,
)
from repro.cluster.cluster import CacheCluster


def _report(cluster: CacheCluster, elapsed: float, threads: int,
            checkpoints: List[Tuple[float, Dict[str, int]]],
            interrupted: bool) -> LoadReport:
    return LoadReport.from_metrics(
        cluster.metrics, elapsed, threads,
        shards=cluster.shard_snapshots(),
        checkpoints=checkpoints,
        breaker_transitions=cluster.breaker_transitions(),
        interrupted=interrupted)


def run_cluster_load(
    cluster: CacheCluster,
    keys: Sequence,
    threads: int = 1,
    tick: float = 0.0,
    checkpoints: Optional[Sequence[float]] = None,
) -> LoadReport:
    """Replay *keys* through *cluster* and measure what happened.

    ``tick`` > 0 paces requests on the cluster's
    :class:`~repro.exec.clock.VirtualClock` at absolute deadlines
    (single-threaded deterministic mode only).  ``checkpoints`` are
    virtual times at which to snapshot the cluster counters for phase
    accounting; they require tick mode.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if tick < 0:
        raise ValueError(f"tick must be >= 0, got {tick}")
    if tick > 0 and threads != 1:
        raise ValueError("tick-based virtual time requires threads=1")
    if tick > 0 and not isinstance(cluster.clock, VirtualClock):
        raise ValueError(
            "tick requires the cluster to run on a VirtualClock")
    if checkpoints and tick == 0:
        raise ValueError("checkpoints require tick-paced virtual time")

    marks = sorted(float(t) for t in (checkpoints or ()))
    taken: List[Tuple[float, Dict[str, int]]] = []
    stop = threading.Event()
    started = time.perf_counter()
    origin = cluster.clock.now()

    def take_due_checkpoints() -> None:
        while marks and cluster.clock.now() >= marks[0]:
            taken.append((marks.pop(0), cluster.metrics.snapshot()))

    def worker(slice_keys: Sequence) -> None:
        for index, key in enumerate(slice_keys, start=1):
            if stop.is_set():
                return
            if tick:
                # Snapshot *before* crossing a checkpoint boundary so a
                # phase delta contains exactly the requests issued
                # strictly before that virtual time.
                deadline = origin + index * tick
                take_due_checkpoints()
                while marks and marks[0] <= deadline:
                    cluster.clock.sleep_until(marks[0])
                    take_due_checkpoints()
                cluster.clock.sleep_until(deadline)
            cluster.get(key)

    if threads == 1:
        try:
            worker(keys)
        except KeyboardInterrupt:
            raise LoadInterrupted(_report(
                cluster, time.perf_counter() - started, threads, taken,
                interrupted=True)) from None
        take_due_checkpoints()
        return _report(cluster, time.perf_counter() - started, threads,
                       taken, interrupted=False)

    slices = [list(keys[t::threads]) for t in range(threads)]
    pool = [threading.Thread(target=worker, args=(s,), daemon=True)
            for s in slices]
    for thread in pool:
        thread.start()
    try:
        for thread in pool:
            while thread.is_alive():
                thread.join(timeout=0.1)
    except KeyboardInterrupt:
        stop.set()
        for thread in pool:
            thread.join(timeout=5.0)
        raise LoadInterrupted(_report(
            cluster, time.perf_counter() - started, threads, taken,
            interrupted=True)) from None
    return _report(cluster, time.perf_counter() - started, threads,
                   taken, interrupted=False)


def run_open_cluster_load(
    cluster: CacheCluster,
    keys: Sequence,
    schedule: ArrivalSchedule,
    queue: Optional[AdmissionQueue] = None,
    limiter: Optional[ConcurrencyLimiter] = None,
    cost: Optional[ServiceCostModel] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    metric_labels: Optional[dict] = None,
) -> OpenLoadReport:
    """Open-loop load against a :class:`CacheCluster`.

    The cluster counterpart of
    :func:`repro.service.loadgen.run_open_load`: the arrival schedule
    drives the router, the admission queue and limiter sit in front of
    it, and promotion cost is aggregated across every shard's policy
    (each shard's promotions serialise on its own lock in reality, but
    the single serialised timeline is a conservative upper bound that
    keeps the model identical to the single-node harness).  Outcomes
    include ``replica_hit``, so the conservation invariant here is
    ``hit+miss+replica_hit+stale+shed+dropped+error == offered``.
    """
    # `is None` checks: an empty AdmissionQueue is falsy (len() == 0),
    # so `queue or default` would silently discard the caller's queue.
    if queue is None:
        queue = AdmissionQueue(capacity=1024)
    if limiter is None:
        limiter = StaticLimiter(8)

    def probe() -> int:
        return sum(service.policy.promotion_count
                   for service in cluster.shards.values())

    return run_open_loop(
        get=cluster.get,
        arrivals=schedule.times(),
        keys=keys,
        clock=cluster.clock,
        queue=queue,
        limiter=limiter,
        cost=cost,
        promotions_probe=probe,
        timeseries=timeseries,
        registry=registry,
        metric_labels=metric_labels,
    )


__all__ = ["SERVED", "run_cluster_load", "run_open_cluster_load"]

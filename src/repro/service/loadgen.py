"""Load harnesses for a cache service or a cluster of them.

Both harnesses take a :class:`~repro.service.service.CacheService` or a
:class:`~repro.cluster.cluster.CacheCluster` as their *target*:

* :func:`run_load` is closed loop: it replays a key sequence from
  ``threads`` worker threads, each issuing its next request only after
  the previous one resolved, and returns a :class:`LoadReport` with
  per-outcome counts, latency percentiles, throughput, the breaker
  transitions, phase checkpoints and (for a cluster) a per-shard
  breakdown.
* :func:`run_open_load` is open loop: an arrival schedule drives the
  target through :func:`~repro.service.overload.run_open_loop`, the
  one engine that charges promotion work on a serialised lock
  timeline, and returns an
  :class:`~repro.service.overload.OpenLoadReport`.

Keys are dealt round-robin across threads, so with ``threads=1`` the
replay is exactly the input order -- which is how the deterministic
virtual-clock tests and the outage experiments use it.  A per-request
``tick`` advances a :class:`~repro.exec.clock.VirtualClock` between
requests to model request interarrival time; it must be left at 0 for
real multi-threaded runs on the system clock.

The closed-loop harness is interrupt-safe: on ``KeyboardInterrupt`` the
stop flag is set, worker threads wind down at their next request
boundary, and the partial :class:`LoadReport` is attached to the
re-raised :class:`LoadInterrupted` so callers (the CLI) can flush what
was measured before exiting with code 130.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry, OutcomeMetrics, percentile
from repro.obs.timeseries import TimeSeriesRecorder
from repro.service.overload import (
    AdmissionQueue,
    ArrivalSchedule,
    ConcurrencyLimiter,
    OpenLoadReport,
    ServiceCostModel,
    StaticLimiter,
    run_open_loop,
)
from repro.service.service import OUTCOMES, CacheService


class LoadInterrupted(KeyboardInterrupt):
    """Ctrl-C during a load run; carries the partial report."""

    def __init__(self, report: "LoadReport") -> None:
        super().__init__("load run interrupted")
        self.report = report


#: Outcomes that delivered a value to the caller (``replica_hit`` only
#: occurs in a cluster).
SERVED = ("hit", "miss", "replica_hit", "stale")

#: Outcomes answered from a cache copy rather than the backend.
CACHE_SERVED = ("hit", "replica_hit", "stale")


@dataclass
class LoadReport:
    """Everything one closed-loop load run measured.

    Built from a serving layer's metrics view (:meth:`from_metrics`):
    ``outcomes`` and ``events`` split its snapshot into the outcome
    counts and the layer's event counters (``coalesced``,
    ``fetch_attempts``, ... for a service; ``front_hits``,
    ``replications``, ... for a cluster).  Cluster runs also carry the
    per-shard snapshots in ``shards`` and any phase ``checkpoints``.
    """

    requests: int
    outcomes: Dict[str, int]
    events: Dict[str, int]
    latency_p50: float
    latency_p90: float
    latency_p99: float
    elapsed: float                 # wall seconds (real clock)
    threads: int
    #: shard name -> that shard's metrics snapshot (clusters only)
    shards: Optional[Dict[str, Dict[str, int]]] = None
    checkpoints: List[Tuple[float, Dict[str, int]]] = field(
        default_factory=list)
    #: ``(time, from, to)``; a cluster's entries name the shard second
    breaker_transitions: List[tuple] = field(default_factory=list)
    interrupted: bool = False

    @classmethod
    def from_metrics(cls, metrics: OutcomeMetrics, elapsed: float,
                     threads: int, **extra) -> "LoadReport":
        """A report of everything *metrics* counted so far."""
        snap = metrics.snapshot()
        latencies = metrics.latencies()
        return cls(
            requests=snap.pop("requests"),
            outcomes={name: snap.pop(name) for name in metrics.outcomes},
            events=snap,
            latency_p50=percentile(latencies, 0.50),
            latency_p90=percentile(latencies, 0.90),
            latency_p99=percentile(latencies, 0.99),
            elapsed=elapsed,
            threads=threads,
            **extra,
        )

    @property
    def throughput(self) -> float:
        """Requests per wall second (0.0 for an instant run)."""
        if self.elapsed <= 0:
            return 0.0
        return self.requests / self.elapsed

    def _fraction(self, names: Sequence[str]) -> float:
        if self.requests == 0:
            return 0.0
        return sum(self.outcomes.get(name, 0)
                   for name in names) / self.requests

    @property
    def availability(self) -> float:
        """Fraction of requests that got a value (any served outcome)."""
        return self._fraction(SERVED)

    @property
    def effective_hit_ratio(self) -> float:
        """Cache-served fraction: hits + replica hits + stale serves."""
        return self._fraction(CACHE_SERVED)

    def check_accounting(self) -> None:
        """Assert the invariant sum(outcomes) == requests."""
        accounted = sum(self.outcomes.values())
        if accounted != self.requests:
            raise AssertionError(
                f"outcome accounting broken: {accounted} accounted "
                f"vs {self.requests} requests ({self.outcomes})")

    def phases(self) -> List[Dict[str, int]]:
        """Per-phase outcome deltas between consecutive checkpoints.

        With checkpoints at ``[t1, t2]`` this yields three dicts --
        before ``t1``, between ``t1`` and ``t2``, and after ``t2`` (the
        final phase is measured against the end-of-run totals).
        """
        snapshots = [snap for _, snap in self.checkpoints]
        snapshots.append({**self.outcomes, "requests": self.requests})
        deltas: List[Dict[str, int]] = []
        previous: Dict[str, int] = {}
        for snap in snapshots:
            deltas.append({name: snap.get(name, 0) - previous.get(name, 0)
                           for name in (*self.outcomes, "requests")})
            previous = snap
        return deltas

    def render(self) -> str:
        """Human-readable multi-line summary."""
        cluster = self.shards is not None
        events = self.events
        lines = [
            f"requests      : {self.requests} over {self.threads} thread(s)"
            + (f", {len(self.shards)} shard(s)" if cluster else "")
            + (" [interrupted]" if self.interrupted else ""),
            "outcomes      : " + "  ".join(
                f"{name}={count}" for name, count in self.outcomes.items()),
        ]
        if cluster:
            lines.append(
                f"hot keys      : {events['replications']} replication(s), "
                f"{events['front_hits']} front-cache hit(s), "
                f"{events['replica_probes']} replica probe(s)")
        else:
            lines += [
                f"coalesced     : {events['coalesced']}",
                f"backend       : {events['fetch_attempts']} fetch(es), "
                f"{events['fetch_failures']} failed",
            ]
        lines.append(f"availability  : {self.availability:.2%}")
        if cluster:
            lines.append(f"eff hit ratio : {self.effective_hit_ratio:.2%}")
        lines += [
            f"latency       : p50={self.latency_p50 * 1e3:.3f}ms "
            f"p90={self.latency_p90 * 1e3:.3f}ms "
            f"p99={self.latency_p99 * 1e3:.3f}ms",
            f"elapsed       : {self.elapsed:.3f}s "
            f"({self.throughput:.0f} req/s)",
        ]
        for name in sorted(self.shards or ()):
            snap = self.shards[name]
            lines.append(f"  shard {name:<6}: " + "  ".join(
                f"{outcome}={snap.get(outcome, 0)}" for outcome in OUTCOMES))
        if self.breaker_transitions and cluster:
            lines.append("breakers      : " + ", ".join(
                f"{shard}:{src}->{dst}@{ts:.2f}s"
                for ts, shard, src, dst in self.breaker_transitions))
        elif self.breaker_transitions:
            lines.append("breaker       : " + ", ".join(
                f"{src}->{dst}@{ts:.2f}s"
                for ts, src, dst in self.breaker_transitions))
        return "\n".join(lines)


def _shards(target) -> List[CacheService]:
    """The services behind *target*: a cluster's shards, or itself."""
    shards = getattr(target, "shards", None)
    return [target] if shards is None else list(shards.values())


def run_load(
    target,
    keys: Sequence,
    threads: int = 1,
    tick: float = 0.0,
    checkpoints: Optional[Sequence[float]] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
) -> LoadReport:
    """Replay *keys* through *target* and measure what happened.

    *target* is a :class:`CacheService` or a
    :class:`~repro.cluster.cluster.CacheCluster`; a cluster's report
    also carries its per-shard snapshots.

    ``tick`` > 0 paces requests on the target's :class:`VirtualClock`
    at absolute deadlines ``origin + i * tick`` (single-threaded
    deterministic mode only -- with real threads a shared virtual
    advance would be racy in *meaning*, not just in memory), so
    injected backend latencies never skew the schedule and a fault
    window at virtual time *t* always lands on the same request index.

    ``checkpoints`` are virtual times at which to snapshot the
    target's counters for phase accounting (:meth:`LoadReport.phases`);
    they require tick mode.

    *timeseries*, if given, is offered the target's clock time after
    every request and samples its registry whenever ``cadence`` clock
    seconds elapsed -- so a run over an injected outage window yields
    windowed outcome curves (hit/stale/error rates over time) rather
    than end-of-run totals.  Pair it with the target's registry.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if tick < 0:
        raise ValueError(f"tick must be >= 0, got {tick}")
    if tick > 0 and threads != 1:
        raise ValueError("tick-based virtual time requires threads=1")
    clock = target.clock
    if tick > 0 and not isinstance(clock, VirtualClock):
        raise ValueError("tick requires the target to run on a "
                         "VirtualClock")
    if checkpoints and tick == 0:
        raise ValueError("checkpoints require tick-paced virtual time")

    marks = sorted(float(t) for t in (checkpoints or ()))
    taken: List[Tuple[float, Dict[str, int]]] = []
    stop = threading.Event()
    started = time.perf_counter()
    origin = clock.now()

    def take_due_checkpoints() -> None:
        while marks and clock.now() >= marks[0]:
            taken.append((marks.pop(0), target.metrics.snapshot()))

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
                    clock.sleep_until(marks[0])
                    take_due_checkpoints()
                clock.sleep_until(deadline)
            target.get(key)
            if timeseries is not None:
                timeseries.maybe_sample(clock.now())

    def report(interrupted: bool) -> LoadReport:
        return LoadReport.from_metrics(
            target.metrics, time.perf_counter() - started, threads,
            shards=(target.shard_snapshots()
                    if getattr(target, "shards", None) is not None
                    else None),
            checkpoints=taken,
            breaker_transitions=target.breaker_transitions(),
            interrupted=interrupted)

    if threads == 1:
        try:
            worker(keys)
        except KeyboardInterrupt:
            raise LoadInterrupted(report(interrupted=True)) from None
        take_due_checkpoints()
        return report(interrupted=False)

    slices = [list(keys[t::threads]) for t in range(threads)]
    pool = [threading.Thread(target=worker, args=(s,), daemon=True)
            for s in slices]
    for thread in pool:
        thread.start()
    try:
        for thread in pool:
            # Join with a timeout so the main thread stays interruptible.
            while thread.is_alive():
                thread.join(timeout=0.1)
    except KeyboardInterrupt:
        stop.set()
        for thread in pool:
            thread.join(timeout=5.0)
        raise LoadInterrupted(report(interrupted=True)) from None
    return report(interrupted=False)


def run_open_load(
    target,
    keys: Sequence,
    schedule: ArrivalSchedule,
    queue: Optional[AdmissionQueue] = None,
    limiter: Optional[ConcurrencyLimiter] = None,
    cost: Optional[ServiceCostModel] = None,
    timeseries: Optional[TimeSeriesRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    metric_labels: Optional[dict] = None,
    tracer=None,
) -> OpenLoadReport:
    """Open-loop load against a :class:`CacheService` or a cluster.

    Unlike :func:`run_load`, demand is an arrival *schedule*: requests
    arrive at their schedule times whether or not earlier ones
    finished, wait in a bounded admission *queue*, and dispatch when
    the *limiter* grants a slot -- so offered load can exceed capacity
    and the overload behaviour (shed, dropped, queue delay, goodput)
    becomes measurable.  Service time comes from the *cost* model,
    with promotion work charged on a serialised lock timeline; the
    schedule plays out on the target's clock (use a
    :class:`~repro.exec.clock.VirtualClock` for deterministic runs).

    Promotions and retry-budget counts are summed over the target's
    shards (a service is its own single shard).  A cluster's shards
    each promote under their own lock in reality; the one serialised
    timeline is a conservative upper bound that keeps the model the
    same for both kinds of target.  A cluster adds ``replica_hit`` to
    the outcomes, so its conservation invariant is
    ``hit+miss+replica_hit+stale+shed+dropped+error == offered``.
    """
    # `is None` checks: an empty AdmissionQueue is falsy (len() == 0),
    # so `queue or default` would silently discard the caller's queue.
    if queue is None:
        queue = AdmissionQueue(capacity=1024)
    if limiter is None:
        limiter = StaticLimiter(8)

    def promotions() -> int:
        # promotion_count aggregates a policy's inner caches
        return sum(shard.policy.promotion_count
                   for shard in _shards(target))

    return run_open_loop(
        get=target.get,
        arrivals=schedule.times(),
        keys=keys,
        clock=target.clock,
        queue=queue,
        limiter=limiter,
        cost=cost,
        promotions_probe=promotions,
        retry_budgets=[shard.retry_budget for shard in _shards(target)
                       if shard.retry_budget is not None],
        timeseries=timeseries,
        registry=registry,
        metric_labels=metric_labels,
        tracer=tracer,
    )


__all__ = ["SERVED", "LoadInterrupted", "LoadReport", "run_load",
           "run_open_load"]

"""The benchmark's four workloads, driven through the public entry points.

Every workload runs in one process with one client in a closed loop:
each call waits for its reply, as in-process callers of a cache library
do.  (Under CPython's interpreter lock, two client threads would measure
lock hand-offs, not the program.)

A *round* is one fresh set-up -- generate the inputs from the seed,
build the system, fill its caches -- followed by one timed phase over a
fixed number of requests.  Rounds of one seed are identical, so every
count a round produces repeats exactly; the timing varies.

* ``serve-hot``  -- ``CacheCluster.get`` read path, mostly hits (LRU).
* ``serve-churn`` -- ``CacheCluster.get`` write path, mostly misses
  (QD-LP-FIFO, one-hit wonders, 1% request tracing).
* ``offline-replay`` -- ``run_sweep`` over the paper's two cache sizes.
* ``tiered-replay`` -- ``simulate_hierarchy`` on a DRAM -> flash stack.
"""

from __future__ import annotations

import signal
from array import array
from collections import Counter as Tally
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from resource import RUSAGE_SELF, getrusage
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ledger import CALIBRATE, ROOT, Patches, Recorder, wrap
from repro.cluster import (
    CLUSTER_OUTCOMES,
    REPLICA_HIT,
    SERVED,
    ClusterConfig,
    build_cluster,
)
from repro.core.base import CacheListener
from repro.exec.clock import SystemClock
from repro.hierarchy import (
    CacheHierarchy,
    Tier,
    dram_flash_config,
    simulate_hierarchy,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.policies.registry import make
from repro.service import (
    ERROR,
    HIT,
    SHED,
    InMemoryBackend,
    ServiceConfig,
)
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.sized.workloads import attach_sizes, unique_bytes
from repro.traces.synthetic import one_hit_wonder_trace, zipf_trace
from repro.traces.trace import Trace

#: The seed whose exact counts are committed in ``expected.json``.
DEFAULT_SEED = 0

SHARDS = 4
SWEEP_POLICIES = ("LRU", "FIFO-Reinsertion", "QD-LP-FIFO")
#: The paper's two cache sizes: 0.1% and 10% of unique objects.
SWEEP_SIZES = (0.001, 0.1)
#: Requests between host_kernel() samples where each request is timed;
#: also the window the latency percentiles are taken over.
WINDOW = 1000
#: host_kernel() runs before and after a traced run_sweep call.
EDGE_REPEATS = 50
#: host_kernel() runs before and after each set-up.
SETUP_REPEATS = 5
#: Wall time between host_kernel() runs that a timer signal triggers
#: inside an untraced set-up or run_sweep call.
TIMER_INTERVAL_S = 0.02
#: host_kernel()'s time on a quiet host, the unit time metrics are
#: normalised to (see run.py).
CALIBRATION_REF_NS = 600_000


@dataclass
class Round:
    """What one set-up plus one timed phase produced."""

    seed: int
    setup_s: float = 0.0
    #: time of each host_kernel() run around the set-up
    setup_calibration_ns: Optional[np.ndarray] = None
    #: the process's peak resident memory when the round ended
    peak_rss_mb: float = 0.0
    generate_s: float = 0.0
    wall_s: float = 0.0
    requests: int = 0
    misses: int = 0
    #: wall time in ns per request, or per call where requests are not
    #: timed one by one (offline-replay)
    latencies_ns: Optional[np.ndarray] = None
    #: time of each host_kernel() run during the timed phase; where
    #: requests are timed, sample w follows latency window w
    calibration_ns: Optional[np.ndarray] = None
    #: outputs fixed by the seed; equal across rounds of one seed
    counts: Dict[str, int] = field(default_factory=dict)
    #: the program's own counters over the timed phase
    layer: Dict[str, float] = field(default_factory=dict)
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str, operations: int = 1) -> None:
        self.failed += operations
        self.notes.append(note)

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.requests


class EvictionTally(CacheListener):
    """Counts the evictions a policy reports to its listeners."""

    def __init__(self) -> None:
        self.evictions = 0

    def on_evict(self, key) -> None:
        self.evictions += 1


def host_kernel() -> dict:
    """A fixed piece of interpreter work that uses no program code.

    Timing it beside the workload measures how fast the host runs
    Python at that moment; see ``Round.calibration_ns``.
    """
    counts: dict = {}
    get = counts.get
    for i in range(5000):
        key = i & 1023
        counts[key] = get(key, 0) + 1
    return counts


class Calibrator:
    """Times :func:`host_kernel` between slices of the timed work."""

    def __init__(self, recorder: Optional[Recorder]) -> None:
        self.recorder = recorder
        self.samples: List[int] = []

    def sample(self, repeats: int = 1) -> None:
        if not repeats:
            return
        span = (self.recorder.open(CALIBRATE)
                if self.recorder is not None else None)
        for _ in range(repeats):
            start = perf_counter_ns()
            host_kernel()
            self.samples.append(perf_counter_ns() - start)
        if span is not None:
            self.recorder.close(span)


@contextmanager
def timer_samples(calibrator: Calibrator):
    """Sample host speed every :data:`TIMER_INTERVAL_S` of wall time.

    For work the benchmark cannot slice itself (a set-up, a
    ``run_sweep`` call): a SIGALRM handler runs the kernel between two
    bytecodes of whatever is running.  The host's speed changes within a
    second, so kernel runs before and after a call of a second or more
    do not follow it.  Untraced only: a span opened from the handler
    could land inside the recorder's own bookkeeping.
    """
    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame: calibrator.sample())
    signal.setitimer(signal.ITIMER_REAL, TIMER_INTERVAL_S, TIMER_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _timed(recorder: Optional[Recorder], body: Callable[[Calibrator], Any],
           rnd: "Round", edge_repeats: int = 0) -> Any:
    """Run ``body(calibrator)`` as the round's timed phase.

    *edge_repeats* kernel runs bracket the body; workloads that time
    each request also sample inside it, after every latency window.
    ``rnd.wall_s`` excludes the kernel's time.
    """
    calibrator = Calibrator(recorder)
    span = recorder.open(ROOT) if recorder is not None else None
    start = perf_counter()
    try:
        calibrator.sample(edge_repeats)
        result = body(calibrator)
        calibrator.sample(edge_repeats)
    finally:
        elapsed = perf_counter() - start
        if span is not None:
            recorder.close(span)
    rnd.wall_s = elapsed - sum(calibrator.samples) / 1e9
    rnd.calibration_ns = np.array(calibrator.samples, dtype=np.int64)
    return result


class Workload:
    """One workload: set-up, optional instrumentation, timed phase."""

    name = ""
    #: whether each request's latency is timed (else one per call)
    per_request_latency = False

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def instrument(self, state: Any, recorder: Recorder,
                   patches: Patches) -> None:
        raise NotImplementedError

    def measure(self, state: Any, recorder: Optional[Recorder],
                rnd: Round) -> None:
        raise NotImplementedError

    def reference_check(self, seed: int, rnd: Round) -> None:
        """Compare *rnd* against a reference computation (if any)."""


def run_round(workload: Workload, seed: int,
              recorder: Optional[Recorder] = None) -> Round:
    """Set up from *seed*, then time one phase (traced if *recorder*)."""
    rnd = Round(seed=seed)
    calibrator = Calibrator(None)
    calibrator.sample(SETUP_REPEATS)
    start = perf_counter()
    # A traced round reports no set-up time, and its traces.generate_s
    # must not include kernel runs.
    with (timer_samples(calibrator) if recorder is None else nullcontext()):
        state = workload.setup(seed)
    elapsed = perf_counter() - start
    timer_ns = sum(calibrator.samples[SETUP_REPEATS:])
    calibrator.sample(SETUP_REPEATS)
    rnd.setup_s = elapsed - timer_ns / 1e9
    rnd.setup_calibration_ns = np.array(calibrator.samples, dtype=np.int64)
    rnd.generate_s = state.generate_s
    patches = Patches()
    if recorder is not None:
        workload.instrument(state, recorder, patches)
    try:
        workload.measure(state, recorder, rnd)
    finally:
        patches.undo()
    rnd.peak_rss_mb = getrusage(RUSAGE_SELF).ru_maxrss / 1024
    return rnd


# ----------------------------------------------------------------------
# serve-hot / serve-churn: CacheCluster.get
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    cluster: Any
    registry: MetricsRegistry
    tracer: Optional[RequestTracer]
    timed_keys: List[int]
    generate_s: float
    evictions: List[EvictionTally] = field(default_factory=list)


class ServeWorkload(Workload):
    """A 4-shard cluster with the default configs and a shared registry."""

    per_request_latency = True

    def __init__(self, name: str, policy: str, capacity: int,
                 generate: Callable[[int, np.random.Generator], np.ndarray],
                 fill: int, timed: int,
                 trace_sample: Optional[float] = None) -> None:
        self.name = name
        self.policy = policy
        self.capacity = capacity
        self.generate = generate
        self.fill = fill
        self.timed = timed
        self.trace_sample = trace_sample

    def setup(self, seed: int) -> ServeState:
        start = perf_counter()
        keys = self.generate(self.fill + self.timed,
                             np.random.default_rng(seed)).tolist()
        generate_s = perf_counter() - start
        clock = SystemClock()
        registry = MetricsRegistry()
        # The tracer keeps its default sampling seed: the workload seed
        # varies the inputs, not which request positions get sampled.
        # (Sampled requests are the slowest ~1%, right at p99.)
        tracer = (RequestTracer(sample=self.trace_sample, clock=clock,
                                registry=registry)
                  if self.trace_sample is not None else None)
        per_shard = self.capacity // SHARDS
        cluster = build_cluster(
            lambda: make(self.policy, per_shard), shards=SHARDS,
            config=ClusterConfig(), service_config=ServiceConfig(),
            clock=clock, registry=registry, tracer=tracer)
        get = cluster.get
        for key in keys[:self.fill]:
            get(key)
        return ServeState(cluster=cluster, registry=registry, tracer=tracer,
                          timed_keys=keys[self.fill:],
                          generate_s=generate_s)

    def instrument(self, state: ServeState, recorder: Recorder,
                   patches: Patches) -> None:
        cluster = state.cluster
        patches.set(cluster, "get", wrap(recorder, cluster.get,
                                         "cluster.get", new_request=True))
        for service in cluster.shards.values():
            patches.set(service, "get", wrap(
                recorder, service.get, "service.get",
                rename=lambda result: ("service.get.hit"
                                       if result.outcome == HIT
                                       else "service.get.miss")))
            patches.set(service, "put",
                        wrap(recorder, service.put, "service.put"))
            policy = service.policy
            patches.set(policy, "request",
                        wrap(recorder, policy.request, "policy.request"))
            patches.set(service.backend, "fetch", wrap(
                recorder, service.backend.fetch, "backend.fetch"))
            tally = EvictionTally()
            policy.add_listener(tally)
            patches.on_undo(lambda p=policy, t=tally: p.remove_listener(t))
            state.evictions.append(tally)
        if state.tracer is not None:
            patches.set(state.tracer, "start", wrap(
                recorder, state.tracer.start, "obs.reqtrace.start"))
        for cls, attr in ((Counter, "inc"), (Gauge, "set"), (Gauge, "inc"),
                          (Histogram, "observe")):
            patches.set(cls, attr, wrap(recorder, getattr(cls, attr),
                                        "obs.metric_update"))

    def _counters(self, state: ServeState) -> Dict[str, float]:
        cluster = state.cluster
        snap = cluster.metrics.snapshot()
        shards = [service.metrics.snapshot()
                  for service in cluster.shards.values()]
        registered = state.registry.counter_values()
        counters = {
            "replications": snap["replications"],
            "replica_probes": snap["replica_probes"],
            "fetch_attempts": sum(s["fetch_attempts"] for s in shards),
            "fetch_failures": sum(s["fetch_failures"] for s in shards),
            "promotions": sum(service.policy.promotion_count
                              for service in cluster.shards.values()),
            "evictions": sum(t.evictions for t in state.evictions),
            "reqtrace_requests": registered.get("reqtrace_requests_total", 0),
            "reqtrace_sampled": registered.get("reqtrace_sampled_total", 0),
        }
        counters.update({f"outcome.{k}": v for k, v in snap.items()})
        return counters

    def measure(self, state: ServeState, recorder: Optional[Recorder],
                rnd: Round) -> None:
        get = state.cluster.get
        keys = state.timed_keys
        n = len(keys)
        # Only the outcome and value are kept: holding every result
        # object would grow the heap the garbage collector walks.
        latencies = array("q", bytes(8 * n))
        outcomes: List[str] = [""] * n
        values: List[Any] = [None] * n
        clock = perf_counter_ns

        def body(calibrator: Calibrator) -> None:
            for first in range(0, n, WINDOW):
                for i in range(first, min(first + WINDOW, n)):
                    start = clock()
                    result = get(keys[i])
                    latencies[i] = clock() - start
                    outcomes[i] = result.outcome
                    values[i] = result.value
                calibrator.sample()

        before = self._counters(state)
        _timed(recorder, body, rnd)
        after = self._counters(state)
        rnd.layer = {name: after[name] - before[name] for name in after}
        rnd.requests = n
        rnd.latencies_ns = np.frombuffer(latencies, dtype=np.int64)
        self._check(state, outcomes, values, rnd)

    def _check(self, state: ServeState, outcomes: List[str],
               values: List[Any], rnd: Round) -> None:
        tally = Tally(outcomes)
        rnd.counts = {outcome: tally.get(outcome, 0)
                      for outcome in CLUSTER_OUTCOMES}
        rnd.misses = rnd.requests - tally[HIT] - tally[REPLICA_HIT]
        refused = tally[ERROR] + tally[SHED]
        if refused:
            rnd.fail(f"{refused} requests returned error or shed", refused)
        origin = InMemoryBackend()
        wrong = sum(1 for key, outcome, value
                    in zip(state.timed_keys, outcomes, values)
                    if outcome in SERVED and value != origin.fetch(key))
        if wrong:
            rnd.fail(f"{wrong} served values differ from the backend's",
                     wrong)
        try:
            state.cluster.metrics.check_conservation()
        except AssertionError as exc:
            rnd.fail(f"cluster conservation: {exc}")
        for outcome, seen in rnd.counts.items():
            counted = rnd.layer[f"outcome.{outcome}"]
            if counted != seen:
                rnd.fail(f"ClusterMetrics counted {counted} {outcome} "
                         f"outcomes, the caller saw {seen}")


# ----------------------------------------------------------------------
# offline-replay: run_sweep -> intern_trace + FastEngine.replay
# ----------------------------------------------------------------------
@dataclass
class SweepState:
    trace: Trace
    generate_s: float


def _engine_classes() -> List[type]:
    from repro.sim.fast import dispatch  # noqa: F401  (imports engines)
    from repro.sim.fast.base import FastEngine

    found, todo = [], [FastEngine]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in found if "replay" in vars(cls)]


class OfflineReplay(Workload):
    """``run_sweep`` over a frozen one-hit-wonder trace, fast engines."""

    name = "offline-replay"

    def __init__(self, requests: int) -> None:
        self.trace_requests = requests

    def keys(self, seed: int) -> np.ndarray:
        return one_hit_wonder_trace(200_000, self.trace_requests, 0.8, 0.3,
                                    np.random.default_rng(seed))

    def setup(self, seed: int) -> SweepState:
        start = perf_counter()
        keys = self.keys(seed)
        generate_s = perf_counter() - start
        # A fresh Trace carries no interned ids: interning is part of
        # the timed sweep, as on a user's first call.
        return SweepState(trace=Trace(name=f"ohw-{seed}", keys=keys),
                          generate_s=generate_s)

    def instrument(self, state: SweepState, recorder: Recorder,
                   patches: Patches) -> None:
        from repro.sim.fast import batch

        patches.set(batch, "intern_trace",
                    wrap(recorder, batch.intern_trace, "sim.intern"))
        open_replays: List[Any] = []
        for cls in _engine_classes():
            patches.set(cls, "replay", _outermost_replay(
                recorder, vars(cls)["replay"], open_replays))

    def measure(self, state: SweepState, recorder: Optional[Recorder],
                rnd: Round) -> None:
        def sweep():
            return run_sweep(list(SWEEP_POLICIES), [state.trace],
                             size_fractions=SWEEP_SIZES, workers=1)

        if recorder is None:
            def body(calibrator: Calibrator):
                with timer_samples(calibrator):
                    return sweep()

            result = _timed(None, body, rnd)
        else:
            traced = wrap(recorder, sweep, "sim.run_sweep", new_request=True)
            result = _timed(recorder, lambda _: traced(), rnd, EDGE_REPEATS)
        rnd.latencies_ns = np.array([round(rnd.wall_s * 1e9)],
                                    dtype=np.int64)
        rnd.counts = _cell_misses(result.records)
        rnd.requests = sum(record.requests for record in result.records)
        rnd.misses = sum(record.misses for record in result.records)
        rnd.layer = {"cell_requests": state.trace.num_requests}
        if not result.ok:
            rnd.fail(f"sweep failures: {result.failures.summary()}")
        if len(result.records) != len(SWEEP_POLICIES) * len(SWEEP_SIZES):
            rnd.fail(f"sweep returned {len(result.records)} cells")
        for record in result.records:
            if record.requests != state.trace.num_requests:
                rnd.fail(f"{record.policy}@{record.size_fraction} replayed "
                         f"{record.requests} of {state.trace.num_requests} "
                         f"requests")

    def reference_misses(self, seed: int) -> Dict[str, int]:
        """Per-cell misses from the reference (non-fast) policies."""
        trace = Trace(name=f"ohw-{seed}", keys=self.keys(seed))
        result = run_sweep(list(SWEEP_POLICIES), [trace],
                           size_fractions=SWEEP_SIZES,
                           options=SimOptions(fast=False), workers=1)
        return _cell_misses(result.records)

    def reference_check(self, seed: int, rnd: Round) -> None:
        reference = self.reference_misses(seed)
        for cell, misses in reference.items():
            if rnd.counts.get(cell) != misses:
                rnd.fail(f"seed {seed} cell {cell}: fast path missed "
                         f"{rnd.counts.get(cell)}, reference {misses}")


def _cell_misses(records) -> Dict[str, int]:
    return {f"{record.policy}@{record.size_fraction}": record.misses
            for record in records}


def _outermost_replay(recorder: Recorder, replay: Callable,
                      open_replays: List[Any]) -> Callable:
    """A replay wrapper that records only the outermost engine call.

    Engine subclasses call ``super().replay``; one span per cell keeps
    the per-policy replay time free of double counting.  The wrappers
    of all engine classes share *open_replays*.
    """
    def wrapper(engine, ids, warmup=0):
        if open_replays:
            return replay(engine, ids, warmup)
        open_replays.append(engine)
        span = recorder.open(f"sim.replay.{engine.name}")
        try:
            return replay(engine, ids, warmup)
        finally:
            recorder.close(span)
            open_replays.pop()
    return wrapper


# ----------------------------------------------------------------------
# tiered-replay: simulate_hierarchy -> CacheHierarchy.request -> Tier
# ----------------------------------------------------------------------
@dataclass
class TieredState:
    config: Any
    sized: Any
    generate_s: float


class TimedKeys:
    """A trace's key column that times each request as it is consumed.

    ``simulate_hierarchy`` pulls key *i + 1* only once request *i* has
    returned, so the time between two pulls is one request's latency --
    measured from the input side, with no wrapper in the program.  Every
    :data:`WINDOW` requests the calibration kernel runs between two
    requests, outside either one's time.
    """

    def __init__(self, keys: List[int], latencies: array,
                 calibrator: Calibrator) -> None:
        self.keys = keys
        self.latencies = latencies
        self.calibrator = calibrator

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        clock = perf_counter_ns
        latencies = self.latencies
        for i, key in enumerate(self.keys, start=1):
            start = clock()
            yield key
            latencies[i - 1] = clock() - start
            if i % WINDOW == 0:
                self.calibrator.sample()


class TieredReplay(Workload):
    """DRAM (1% of bytes, Sized-QD-LP-FIFO) -> flash (10%, ghost)."""

    name = "tiered-replay"
    per_request_latency = True

    def __init__(self, requests: int) -> None:
        self.trace_requests = requests

    def setup(self, seed: int) -> TieredState:
        start = perf_counter()
        keys = one_hit_wonder_trace(50_000, self.trace_requests, 0.9, 0.3,
                                    np.random.default_rng(seed))
        generate_s = perf_counter() - start
        sized = attach_sizes(keys.tolist(), "lognormal", seed=seed)
        footprint = unique_bytes(sized)
        config = dram_flash_config(
            dram_bytes=max(4096, round(footprint * 0.01)),
            flash_bytes=max(4096, round(footprint * 0.10)),
            dram_policy="qd-lp-fifo", flash_admission="ghost")
        return TieredState(config=config, sized=sized,
                           generate_s=generate_s)

    def instrument(self, state: TieredState, recorder: Recorder,
                   patches: Patches) -> None:
        patches.set(CacheHierarchy, "request", wrap(
            recorder, CacheHierarchy.request, "hierarchy.request",
            new_request=True))
        patches.set(Tier, "lookup", wrap(
            recorder, Tier.lookup, lambda tier, *_: f"tier.{tier.name}.lookup"))
        patches.set(Tier, "insert", wrap(recorder, Tier.insert, "tier.insert"))
        patches.set(Tier, "demote_in", wrap(
            recorder, Tier.demote_in,
            lambda tier, *_: f"tier.{tier.name}.demote_in"))

    def measure(self, state: TieredState, recorder: Optional[Recorder],
                rnd: Round) -> None:
        simulate = (wrap(recorder, simulate_hierarchy, "hierarchy.simulate")
                    if recorder is not None else simulate_hierarchy)
        keys, sizes = state.sized
        latencies = array("q", bytes(8 * len(keys)))

        def body(calibrator: Calibrator):
            stream = TimedKeys(keys, latencies, calibrator)
            return simulate(state.config, (stream, sizes))

        result = _timed(recorder, body, rnd)
        rnd.latencies_ns = np.frombuffer(latencies, dtype=np.int64)
        rnd.requests = result.requests
        rnd.misses = result.backend_fetches
        dram, flash = result.tier_report("dram"), result.tier_report("flash")
        rnd.counts = {f"hits.{tier}": hits
                      for tier, hits in result.hits_by_tier}
        rnd.counts["backend_fetches"] = result.backend_fetches
        rnd.counts["flash_write_bytes"] = result.flash_write_bytes
        rnd.layer = {
            "lookups": sum(report.lookups for report in result.tiers),
            "flash_demoted_in": (flash.demoted_in_admitted
                                 + flash.demoted_in_refreshed
                                 + flash.demoted_in_rejected),
            "flash_admitted": flash.demoted_in_admitted,
            "flash_write_bytes": result.flash_write_bytes,
        }
        expected = len(state.sized[0])
        if result.requests != expected:
            rnd.fail(f"hierarchy saw {result.requests} of {expected} "
                     f"requests")
        if result.overall_hits + result.backend_fetches != result.requests:
            rnd.fail("hits + backend fetches != requests")
        if sum(hits for _, hits in result.hits_by_tier) != \
                result.overall_hits:
            rnd.fail("per-tier hits do not add up to overall hits")
        if dram.demoted_out != rnd.layer["flash_demoted_in"]:
            rnd.fail(f"dram demoted {dram.demoted_out} objects, flash "
                     f"received {rnd.layer['flash_demoted_in']}")
        for report in result.tiers:
            if report.hits + report.misses != report.lookups:
                rnd.fail(f"tier {report.name}: hits + misses != lookups")
            if report.used_bytes > report.capacity_bytes:
                rnd.fail(f"tier {report.name} over its byte budget")


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        ServeWorkload(
            "serve-hot", policy="LRU", capacity=20_000,
            generate=lambda n, rng: zipf_trace(100_000, n, 1.0, rng),
            fill=50_000, timed=100_000),
        ServeWorkload(
            "serve-churn", policy="QD-LP-FIFO", capacity=4_000,
            generate=lambda n, rng: one_hit_wonder_trace(
                200_000, n, 0.8, 0.3, rng),
            fill=20_000, timed=70_000, trace_sample=0.01),
        OfflineReplay(requests=100_000),
        TieredReplay(requests=200_000),
    )
}


__all__ = ["CALIBRATION_REF_NS", "DEFAULT_SEED", "Round", "WORKLOADS", "Workload", "run_round"]

"""A thread-safe, fault-tolerant read-through cache service.

:class:`CacheService` puts any :class:`~repro.core.base.EvictionPolicy`
in front of a :class:`~repro.service.backend.Backend` and serves
concurrent ``get(key)`` traffic with production-grade failure handling:

* **Request coalescing (single-flight)** -- concurrent misses on one
  key share a single backend fetch; one caller becomes the *leader*,
  the rest block on its flight and inherit its outcome.  A flash crowd
  on a cold key issues exactly one origin fetch.
* **Retry with exponential backoff and deadlines** -- backend fetches
  reuse :class:`~repro.exec.retry.RetryPolicy`; per-fetch elapsed time
  over ``deadline`` counts as a timeout.  All waiting goes through the
  shared :class:`~repro.exec.clock.Clock`, so tests never sleep.
* **Circuit breaker** -- consecutive backend failures trip a
  :class:`~repro.service.breaker.CircuitBreaker`; while open, misses
  degrade instantly instead of queueing on a dead origin.
* **Graceful degradation** -- on fetch failure the service serves a
  stale copy if one exists within ``ttl + stale_ttl`` (bounded
  staleness), negative-caches the error for ``negative_ttl`` seconds
  so repeated misses don't re-hammer the origin, and sheds load when
  more than ``max_inflight`` fetches are already in flight.

Every request resolves to exactly one outcome -- ``hit``, ``miss``
(fetched), ``stale``, ``shed`` or ``error`` -- and the accounting
invariant ``hits + misses + stale + shed + errors == requests`` holds
under arbitrary concurrency (the stress tests hammer it).

The eviction policy's own structures are guarded by one service lock,
matching the paper's §2 model of a production cache: every promotion a
policy performs on the hit path happens inside the critical section,
which is exactly why lazy-promotion policies serve concurrent traffic
better than LRU.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Hashable, List, Optional,
                    Tuple)

from repro.core.base import CacheListener, EvictionPolicy
from repro.exec.clock import Clock, SystemClock
from repro.exec.retry import NO_RETRY, RetryPolicy
from repro.obs.metrics import (
    LATENCY_RESERVOIR_SIZE,
    MetricsRegistry,
    OutcomeMetrics,
)
from repro.obs.reqtrace import NOT_SAMPLED
from repro.service.backend import Backend
from repro.service.breaker import (
    STATE_VALUES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.faults import BackendTimeout
from repro.service.overload import (
    AIMDLimiter,
    AimdConfig,
    RetryBudget,
    RetryBudgetConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.reqtrace import ActiveSpan, RequestTracer, TraceContext

Key = Hashable

HIT = "hit"        # fresh value served from the cache
MISS = "miss"      # value fetched from the backend (or coalesced onto one)
STALE = "stale"    # expired value served because the backend is failing
SHED = "shed"      # rejected: too many fetches already in flight
ERROR = "error"    # no value: backend failed and nothing to degrade to

OUTCOMES = (HIT, MISS, STALE, SHED, ERROR)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`CacheService` (validated eagerly).

    * ``ttl`` -- seconds a fetched value counts as fresh; ``None``
      means values never expire.
    * ``stale_ttl`` -- extra seconds past ``ttl`` during which an
      expired value may still be served *if the backend is failing*
      (bounded staleness; 0 disables serve-stale).
    * ``negative_ttl`` -- seconds a backend failure is remembered;
      requests within the window fail fast without touching the
      backend (0 disables negative caching).
    * ``max_inflight`` -- cap on concurrent backend fetches; misses
      beyond it are shed.  ``None`` means unlimited.
    * ``deadline`` -- per-fetch time budget; a slower fetch counts as
      a timeout failure even if it eventually returned.
    * ``retry`` -- backoff schedule for failed fetches
      (:data:`~repro.exec.retry.NO_RETRY` by default).
    * ``breaker`` -- circuit-breaker configuration, or ``None`` to
      disable the breaker entirely.
    * ``limiter`` -- adaptive concurrency limiting
      (:class:`~repro.service.overload.AimdConfig`): the in-flight
      fetch cap moves with observed fetch latency (AIMD) instead of
      sitting at a static ``max_inflight``.  Mutually exclusive with
      ``max_inflight`` -- one knob must own the shed decision.
    * ``retry_budget`` -- token bucket over the retry path
      (:class:`~repro.service.overload.RetryBudgetConfig`): retries
      beyond the budget are cut off instead of amplifying an outage
      into a retry storm.  ``None`` leaves retries unbudgeted.
    """

    ttl: Optional[float] = None
    stale_ttl: float = 0.0
    negative_ttl: float = 0.0
    max_inflight: Optional[int] = None
    deadline: Optional[float] = None
    retry: RetryPolicy = NO_RETRY
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)
    limiter: Optional[AimdConfig] = None
    retry_budget: Optional[RetryBudgetConfig] = None

    def __post_init__(self) -> None:
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError(
                f"ttl must be > 0 seconds or None (never expire), "
                f"got {self.ttl}")
        if self.stale_ttl < 0:
            raise ValueError(
                f"stale_ttl must be >= 0 seconds, got {self.stale_ttl}")
        if self.negative_ttl < 0:
            raise ValueError(
                f"negative_ttl must be >= 0 seconds, "
                f"got {self.negative_ttl}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1 or None (unlimited), "
                f"got {self.max_inflight}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be > 0 seconds or None (unbounded), "
                f"got {self.deadline}")
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}")
        if self.breaker is not None and not isinstance(self.breaker,
                                                       BreakerConfig):
            raise TypeError(
                f"breaker must be a BreakerConfig or None, "
                f"got {type(self.breaker).__name__}")
        if self.limiter is not None and not isinstance(self.limiter,
                                                       AimdConfig):
            raise TypeError(
                f"limiter must be an AimdConfig or None, "
                f"got {type(self.limiter).__name__}")
        if self.limiter is not None and self.max_inflight is not None:
            raise ValueError(
                "limiter and max_inflight are mutually exclusive: the "
                "adaptive limiter replaces the static in-flight cap")
        if self.retry_budget is not None and not isinstance(
                self.retry_budget, RetryBudgetConfig):
            raise TypeError(
                f"retry_budget must be a RetryBudgetConfig or None, "
                f"got {type(self.retry_budget).__name__}")


@dataclass(slots=True)
class GetResult:
    """What one ``get`` resolved to."""

    key: Key
    value: Any
    outcome: str           # one of OUTCOMES
    coalesced: bool        # served by another request's fetch
    latency: float         # seconds on the service clock
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether a value (fresh or stale) was served."""
        return self.outcome in (HIT, MISS, STALE)


class ServiceMetrics(OutcomeMetrics):
    """Per-outcome accounting for one service instance.

    A view over registry metrics: ``service_requests_total{outcome=}``,
    ``service_request_latency_seconds{outcome=}``,
    ``service_coalesced_total``, ``service_fetch_attempts_total``,
    ``service_fetch_failures_total`` and ``service_negative_hits_total``
    (see :class:`~repro.obs.metrics.OutcomeMetrics`).
    """

    prefix = "service"
    outcomes = OUTCOMES
    requests_help = "Requests by outcome"
    latency_help = "Request latency by outcome"
    events = {
        "coalesced": ("service_coalesced_total",
                      "Requests served by another request's fetch"),
        "fetch_attempts": ("service_fetch_attempts_total",
                           "Backend fetch attempts"),
        "fetch_failures": ("service_fetch_failures_total",
                           "Failed backend fetches"),
        "negative_hits": ("service_negative_hits_total",
                          "Requests answered from the negative cache"),
    }

    def record(self, outcome: str, latency: float,
               coalesced: bool, exemplar: Optional[str] = None) -> bool:
        """Account one finished request.

        ``exemplar`` optionally offers a trace id to the latency
        histogram's bucket (see :meth:`Histogram.observe`); returns
        True when it was taken, so the caller can pin that trace.
        """
        return self._record(outcome, latency,
                            "coalesced" if coalesced else None, exemplar)

    def record_fetch(self, ok: bool) -> None:
        """Account one backend fetch attempt."""
        self._count("fetch_attempts")
        if not ok:
            self._count("fetch_failures")

    def record_negative_hit(self) -> None:
        """Account one request answered from the negative cache."""
        self._count("negative_hits")


@dataclass
class _Entry:
    """A cached value plus the freshness metadata TTLs need."""

    value: Any
    fetched_at: float


class _Flight:
    """One in-progress backend fetch that followers can latch onto."""

    __slots__ = ("event", "outcome", "value", "error", "waiters",
                 "leader_trace_id", "leader_span_id")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: str = ERROR
        self.value: Any = None
        self.error: Optional[str] = None
        self.waiters = 0
        # When the leader's request is traced, followers link their
        # spans to the leader's so a coalesced trace shows *whose*
        # fetch actually served it.
        self.leader_trace_id: Optional[str] = None
        self.leader_span_id: Optional[int] = None


class _StoreReaper(CacheListener):
    """Drop the value store's entry when the policy evicts a key.

    Runs inside the service lock (all policy calls are made under it),
    so the plain dict mutation is safe.
    """

    def __init__(self, store: Dict[Key, _Entry]) -> None:
        self._store = store

    def on_evict(self, key: Key) -> None:
        self._store.pop(key, None)


class CacheService:
    """Thread-safe read-through cache over a policy and a backend.

    The single public operation is :meth:`get`; everything else --
    coalescing, retries, breaker, degradation -- happens behind it.
    ``clock`` defaults to the real :class:`~repro.exec.clock.SystemClock`;
    tests inject a :class:`~repro.exec.clock.VirtualClock` and drive
    TTLs, backoffs, outages and breaker cooldowns deterministically.
    ``registry`` shares a :class:`~repro.obs.metrics.MetricsRegistry`
    for export; without one the service counts into a private registry
    (``metrics.registry``).
    """

    #: real-time cap on waiting for another request's fetch; a safety
    #: net only -- leaders always settle their flight, even on error.
    FOLLOWER_WAIT = 30.0

    def __init__(
        self,
        policy: EvictionPolicy,
        backend: Backend,
        config: Optional[ServiceConfig] = None,
        clock: Optional[Clock] = None,
        registry: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
        tracer: Optional["RequestTracer"] = None,
    ) -> None:
        if not isinstance(policy, EvictionPolicy):
            raise TypeError(
                f"policy must be an EvictionPolicy, "
                f"got {type(policy).__name__}")
        if not hasattr(backend, "fetch"):
            raise TypeError(
                f"backend must provide fetch(key), "
                f"got {type(backend).__name__}")
        self.policy = policy
        self.backend = backend
        self.config = config or ServiceConfig()
        self.clock = clock or SystemClock()
        # Request tracing is opt-in; must share this service's clock so
        # span timestamps and request latencies agree.
        self.tracer = tracer
        self.metrics = ServiceMetrics(registry, labels=metric_labels)
        registry = self.metrics.registry
        self.limiter: Optional[AIMDLimiter] = None
        self._limit_gauge = None
        if self.config.limiter is not None:
            self.limiter = AIMDLimiter(self.config.limiter)
            self._limit_gauge = registry.gauge(
                "service_inflight_limit",
                "Current adaptive in-flight fetch limit",
                **self.metrics.labels)
            self._limit_gauge.set(self.limiter.limit)
        self.retry_budget: Optional[RetryBudget] = (
            RetryBudget(self.config.retry_budget)
            if self.config.retry_budget is not None else None)
        self.breaker: Optional[CircuitBreaker] = None
        if self.config.breaker is not None:
            self.breaker = CircuitBreaker(self.config.breaker, self.clock)
            gauge = registry.gauge("service_breaker_state",
                                   "0=closed, 1=half-open, 2=open",
                                   **self.metrics.labels)
            gauge.set(STATE_VALUES[self.breaker.state])
            self.breaker.on_transition = (
                lambda _old, new, _now: gauge.set(STATE_VALUES[new]))
        self._lock = threading.Lock()
        self._store: Dict[Key, _Entry] = {}
        self._negative: Dict[Key, tuple] = {}   # key -> (error, expires_at)
        self._flights: Dict[Key, _Flight] = {}
        policy.add_listener(_StoreReaper(self._store))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get(self, key: Key,
            ctx: Optional["TraceContext"] = None) -> GetResult:
        """Serve one request for *key* (thread-safe).

        ``ctx`` optionally joins an existing request trace (propagated
        by the cluster router or the open-loop engine); without a
        tracer it is ignored and the request path is unchanged.
        """
        t0 = self.clock.now()
        span = None
        if self.tracer is not None and ctx is not NOT_SAMPLED:
            span = self.tracer.start("service.get", ctx=ctx, start=t0,
                                     key=repr(key), **self.metrics.labels)
        flight: Optional[_Flight] = None
        is_leader = False
        with self._lock:
            # Fresh cached value: the fast path.
            entry = self._store.get(key)
            if entry is not None and key in self.policy:
                age = t0 - entry.fetched_at
                if self.config.ttl is None or age <= self.config.ttl:
                    self.policy.request(key)  # hit: policy may promote
                    return self._finish(key, entry.value, HIT, False, t0,
                                        span=span)
            # Recent backend failure: fail fast without a fetch.
            negative = self._negative.get(key)
            if negative is not None:
                error, expires_at = negative
                if t0 < expires_at:
                    self.metrics.record_negative_hit()
                    if span is not None:
                        span.note(negative_cache=True)
                    return self._finish(
                        key, None, ERROR, False, t0,
                        error=f"negative-cached: {error}", span=span)
                del self._negative[key]
            # Someone is already fetching this key: join their flight.
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
            else:
                # Load shedding: refuse to queue more backend work.
                # The cap is either the static max_inflight knob or the
                # adaptive limiter's current limit.
                inflight_cap = self.config.max_inflight
                if inflight_cap is None and self.limiter is not None:
                    inflight_cap = self.limiter.limit
                if (inflight_cap is not None
                        and len(self._flights) >= inflight_cap):
                    if span is not None:
                        span.note(shed=True, inflight=len(self._flights),
                                  inflight_cap=inflight_cap)
                    stale = self._stale_entry(key, t0)
                    if stale is not None:
                        if span is not None:
                            span.note(served_stale=True)
                        return self._finish(key, stale.value, STALE,
                                            False, t0,
                                            error="load shed; served stale",
                                            span=span)
                    return self._finish(
                        key, None, SHED, False, t0,
                        error=f"load shed: {len(self._flights)} fetches "
                              f"in flight (max {inflight_cap})", span=span)
                # Open breaker: degrade instantly, no flight.
                if self.breaker is not None and not self.breaker.allow():
                    if span is not None:
                        span.note(breaker="open")
                        span.mark("breaker-open")
                    stale = self._stale_entry(key, t0)
                    if stale is not None:
                        if span is not None:
                            span.note(served_stale=True)
                        return self._finish(key, stale.value, STALE,
                                            False, t0,
                                            error="circuit open; served stale",
                                            span=span)
                    return self._finish(key, None, ERROR, False, t0,
                                        error="circuit breaker open",
                                        span=span)
                flight = _Flight()
                if span is not None:
                    flight.leader_trace_id = span.trace_id
                    flight.leader_span_id = span.span_id
                self._flights[key] = flight
                is_leader = True

        if not is_leader:
            return self._follow(key, flight, t0, span=span)
        return self._lead(key, flight, t0, span=span)

    #: alias so the service can stand in where a callable is expected
    __call__ = get

    def contains_fresh(self, key: Key) -> bool:
        """Whether a fresh (non-expired) value for *key* is cached."""
        with self._lock:
            return self._servable(key, allow_stale=False) is not None

    # ------------------------------------------------------------------
    # Replica / cluster hooks
    # ------------------------------------------------------------------
    def put(self, key: Key, value: Any) -> None:
        """Seed *key* -> *value* as if it had just been fetched.

        The replica-write hook: the cluster router pushes a hot key's
        freshly fetched value into replica shards through this, and
        rebalancing migrates surviving entries with it.  The key is
        admitted into the eviction policy (evictions fire normally) and
        any negative-cache entry for it is cleared.
        """
        with self._lock:
            self.policy.request(key)
            self._store[key] = _Entry(value, self.clock.now())
            self._negative.pop(key, None)

    def peek(self, key: Key, allow_stale: bool = True) -> Optional[GetResult]:
        """Read *key* locally -- never touches the backend.

        The replica-read hook: when a primary shard's breaker is open
        (or the shard is down), the cluster asks the key's replicas for
        whatever copy they hold.  Returns a :class:`GetResult` with
        outcome ``hit`` (fresh) or ``stale`` (expired but within the
        serve-stale budget), or ``None`` when nothing servable is
        cached.  Does not promote in the eviction policy and records no
        metrics -- accounting belongs to the caller's request, not to
        this shard.
        """
        with self._lock:
            found = self._servable(key, allow_stale)
        if found is None:
            return None
        entry, outcome = found
        return GetResult(key=key, value=entry.value, outcome=outcome,
                         coalesced=False, latency=0.0)

    def holds(self, key: Key) -> bool:
        """Whether :meth:`peek` would find a servable copy of *key*.

        The replica-write check: the same answer without building a
        result.
        """
        with self._lock:
            return self._servable(key, allow_stale=True) is not None

    def invalidate(self, key: Key) -> bool:
        """Drop any cached value for *key*; returns whether one existed.

        Used by ring rebalancing when a key's ownership moves away from
        this shard.  The policy's metadata entry is left to age out --
        with no stored value the next request is a miss either way.
        """
        with self._lock:
            self._negative.pop(key, None)
            return self._store.pop(key, None) is not None

    def flight_waiters(self, key: Key) -> int:
        """Requests waiting on *key*'s in-progress fetch (0 if none)."""
        with self._lock:
            flight = self._flights.get(key)
            return flight.waiters if flight is not None else 0

    def cached_keys(self) -> List[Key]:
        """A consistent snapshot of the keys holding a stored value."""
        with self._lock:
            return [key for key in self._store if key in self.policy]

    @property
    def breaker_open(self) -> bool:
        """Whether the circuit breaker currently rejects fetches."""
        return self.breaker is not None and self.breaker.is_open()

    def breaker_transitions(self) -> List[tuple]:
        """Breaker state transitions so far (empty without a breaker)."""
        if self.breaker is None:
            return []
        return list(self.breaker.transitions)

    # ------------------------------------------------------------------
    # Leader / follower paths
    # ------------------------------------------------------------------
    def _follow(self, key: Key, flight: _Flight, t0: float,
                span: Optional["ActiveSpan"] = None) -> GetResult:
        """Wait for the in-flight fetch and inherit its outcome."""
        if span is not None:
            # Cross-trace link: this request rode another request's
            # fetch; record whose so the trace viewer can join them.
            span.note(coalesced=True)
            if flight.leader_trace_id is not None:
                span.note(leader_trace=flight.leader_trace_id,
                          leader_span=flight.leader_span_id)
        if not flight.event.wait(self.FOLLOWER_WAIT):  # pragma: no cover
            return self._finish(key, None, ERROR, True, t0,
                                error="timed out waiting for the "
                                      "coalesced fetch", span=span)
        return self._finish(key, flight.value, flight.outcome, True, t0,
                            error=flight.error, span=span)

    def _lead(self, key: Key, flight: _Flight, t0: float,
              span: Optional["ActiveSpan"] = None) -> GetResult:
        """Run the backend fetch (with retries) and settle the flight."""
        retry = self.config.retry
        attempt = 1
        error: Optional[str] = None
        breaker_seen = (len(self.breaker.transitions)
                        if self.breaker is not None else 0)

        def annotate() -> None:
            """Fold what the fetch loop did into the request span."""
            if span is None:
                return
            if attempt > 1:
                span.note(retries=attempt - 1)
            if self.breaker is not None:
                fresh = self.breaker.transitions[breaker_seen:]
                if fresh:
                    span.mark("breaker-open")
                    span.note(breaker_transitions=[
                        f"{old}->{new}" for _ts, old, new in fresh])
        # Attempt 1 was authorised by the allow() that created the
        # flight (or the breaker is disabled).  It also earns the
        # retry budget its deposit: first tries fund future retries.
        if self.retry_budget is not None:
            self.retry_budget.record_request()
        allowed = True
        try:
            while True:
                if not allowed:
                    error = error or "circuit breaker open"
                    break
                fetch_span = (span.child("service.fetch", attempt=attempt)
                              if span is not None else None)
                fetched, error = self._attempt_fetch(key)
                if fetch_span is not None:
                    fetch_span.end(**({"error": error} if error else {}))
                if error is None:
                    self._settle(key, flight, MISS, fetched, None)
                    annotate()
                    return self._finish(key, fetched, MISS, False, t0,
                                        span=span)
                if attempt >= retry.max_attempts:
                    break
                # Retries spend whole tokens; an empty bucket means the
                # backend is already saturated with first tries, so the
                # retry is cut off rather than amplifying the outage.
                if (self.retry_budget is not None
                        and not self.retry_budget.try_spend()):
                    error = f"{error} [retry budget exhausted]"
                    if span is not None:
                        span.note(retry_budget_exhausted=True)
                    break
                self.clock.sleep(retry.backoff(attempt))
                attempt += 1
                allowed = (self.breaker.allow()
                           if self.breaker is not None else True)
            # All attempts failed (or the breaker cut the retries off):
            # degrade -- negative-cache the error, serve stale if allowed.
            with self._lock:
                now = self.clock.now()
                if self.config.negative_ttl > 0:
                    self._negative[key] = (
                        error, now + self.config.negative_ttl)
                    if span is not None:
                        span.note(negative_cached=True)
                stale = self._stale_entry(key, now)
            annotate()
            if stale is not None:
                if span is not None:
                    span.note(served_stale=True)
                self._settle(key, flight, STALE, stale.value, error)
                return self._finish(key, stale.value, STALE, False, t0,
                                    error=error, span=span)
            self._settle(key, flight, ERROR, None, error)
            return self._finish(key, None, ERROR, False, t0, error=error,
                                span=span)
        finally:
            # Whatever happened -- including an unexpected exception --
            # the flight must be released or followers deadlock.
            self._release(key, flight)
            if self.limiter is not None:
                now = self.clock.now()
                self.limiter.on_complete(now - t0, now)
                self._limit_gauge.set(self.limiter.limit)

    def _attempt_fetch(self, key: Key) -> tuple:
        """One backend fetch attempt; returns ``(value, error-or-None)``.

        On success the value is stored and admitted into the policy.
        """
        start = self.clock.now()
        try:
            value = self.backend.fetch(key)
            elapsed = self.clock.now() - start
            if (self.config.deadline is not None
                    and elapsed > self.config.deadline):
                raise BackendTimeout(
                    f"fetch of {key!r} took {elapsed:.3f}s with a "
                    f"{self.config.deadline}s deadline")
        except Exception as exc:
            self.metrics.record_fetch(ok=False)
            if self.breaker is not None:
                self.breaker.record_failure()
            return None, f"{type(exc).__name__}: {exc}"
        self.metrics.record_fetch(ok=True)
        if self.breaker is not None:
            self.breaker.record_success()
        with self._lock:
            # Admit first (evictions fire the reaper), then store the
            # value: the admitted key itself is never evicted by its
            # own admission.
            self.policy.request(key)
            self._store[key] = _Entry(value, self.clock.now())
            self._negative.pop(key, None)
        return value, None

    def _settle(self, key: Key, flight: _Flight, outcome: str,
                value: Any, error: Optional[str]) -> None:
        """Publish the flight's outcome (before waking followers)."""
        flight.outcome = outcome
        flight.value = value
        flight.error = error

    def _release(self, key: Key, flight: _Flight) -> None:
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.event.set()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _servable(self, key: Key,
                  allow_stale: bool) -> Optional[Tuple[_Entry, str]]:
        """*key*'s cached entry and the outcome serving it would have.

        ``hit`` when fresh, ``stale`` when expired but within the
        serve-stale budget and *allow_stale*; ``None`` when nothing
        servable is cached.  Caller holds the service lock.
        """
        entry = self._store.get(key)
        if entry is None or key not in self.policy:
            return None
        age = self.clock.now() - entry.fetched_at
        ttl = self.config.ttl
        if ttl is None or age <= ttl:
            return entry, HIT
        if (allow_stale and self.config.stale_ttl > 0
                and age <= ttl + self.config.stale_ttl):
            return entry, STALE
        return None

    def _stale_entry(self, key: Key, now: float) -> Optional[_Entry]:
        """The bounded-staleness fallback entry, if serving it is allowed.

        Callers hold or have just released the service lock; reading
        the dict without it is safe under CPython, and staleness is
        re-derived from timestamps so a racing refresh only makes the
        answer fresher.
        """
        if self.config.stale_ttl <= 0:
            return None
        entry = self._store.get(key)
        if entry is None or key not in self.policy:
            return None
        budget = (self.config.ttl or 0.0) + self.config.stale_ttl
        if now - entry.fetched_at <= budget:
            return entry
        return None

    def _finish(self, key: Key, value: Any, outcome: str, coalesced: bool,
                t0: float, error: Optional[str] = None,
                span: Optional["ActiveSpan"] = None) -> GetResult:
        latency = self.clock.now() - t0
        took = self.metrics.record(
            outcome, latency, coalesced,
            exemplar=span.trace_id if span is not None else None)
        if span is not None:
            if took:
                # This trace is now referenced from a histogram bucket;
                # pin it so `repro trace show <id>` can resolve it.
                span.mark("exemplar")
            span.end(outcome=outcome,
                     **({"error": error} if error else {}))
        return GetResult(key=key, value=value, outcome=outcome,
                         coalesced=coalesced, latency=latency, error=error)


__all__ = [
    "ERROR",
    "HIT",
    "LATENCY_RESERVOIR_SIZE",
    "MISS",
    "OUTCOMES",
    "SHED",
    "STALE",
    "CacheService",
    "GetResult",
    "ServiceConfig",
    "ServiceMetrics",
]

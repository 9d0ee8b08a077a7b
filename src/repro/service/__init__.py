"""repro.service -- a fault-tolerant concurrent cache *service* layer.

The paper's operational argument (§2) is about serving systems: FIFO
family policies win under concurrent traffic because hits do not
serialise on a lock.  The simulator measures policies offline; this
package exercises them *online*, as a thread-safe read-through cache in
front of a failing backend:

* :mod:`repro.service.service` -- :class:`CacheService`: wraps any
  :class:`~repro.core.base.EvictionPolicy` with per-key request
  coalescing (single-flight), retry with exponential backoff and
  per-request deadlines, TTL freshness, and graceful degradation
  (serve-stale-on-error, negative caching, load shedding).
* :mod:`repro.service.breaker` -- per-backend circuit breaker with
  half-open probing.
* :mod:`repro.service.backend` -- the :class:`Backend` interface plus
  an in-memory origin and the fault-injected wrapper.
* :mod:`repro.service.faults` -- :class:`BackendFaultPlan`,
  deterministic backend fault injection on a virtual clock (the
  service-layer sibling of :class:`repro.exec.FaultPlan`).
* :mod:`repro.service.loadgen` -- the two load harnesses, for a
  service or a :class:`~repro.cluster.cluster.CacheCluster` alike:
  closed-loop :func:`~repro.service.loadgen.run_load` (threads,
  per-outcome metrics, latency percentiles, phase checkpoints) and
  open-loop :func:`~repro.service.loadgen.run_open_load`.
* :mod:`repro.service.overload` -- open-loop overload robustness:
  arrival schedules, bounded admission queue with deadline-aware drop,
  static/AIMD concurrency limiters, retry budget, and the service-cost
  model that charges promotion work on a serialised lock timeline --
  the repo's one lock-contention model (experiment X3 runs on it).
"""

from repro.service.backend import (
    Backend,
    CallableBackend,
    FaultInjectedBackend,
    InMemoryBackend,
)
from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.service.faults import (
    BackendError,
    BackendOutage,
    BackendTimeout,
    BackendFaultPlan,
    InjectedBackendError,
)
from repro.service.loadgen import (
    LoadInterrupted,
    LoadReport,
    run_load,
    run_open_load,
)
from repro.service.overload import (
    DROPPED,
    AdmissionQueue,
    AIMDLimiter,
    AimdConfig,
    OpenLoadReport,
    RetryBudget,
    RetryBudgetConfig,
    ServiceCostModel,
    StaticLimiter,
    run_open_loop,
)
from repro.service.service import (
    ERROR,
    HIT,
    MISS,
    SHED,
    STALE,
    CacheService,
    GetResult,
    ServiceConfig,
    ServiceMetrics,
)

__all__ = [
    "AIMDLimiter",
    "AdmissionQueue",
    "AimdConfig",
    "Backend",
    "BackendError",
    "BackendFaultPlan",
    "BackendOutage",
    "BackendTimeout",
    "BreakerConfig",
    "CLOSED",
    "CacheService",
    "CallableBackend",
    "CircuitBreaker",
    "DROPPED",
    "ERROR",
    "FaultInjectedBackend",
    "GetResult",
    "HALF_OPEN",
    "HIT",
    "InMemoryBackend",
    "InjectedBackendError",
    "LoadInterrupted",
    "LoadReport",
    "MISS",
    "OPEN",
    "OpenLoadReport",
    "RetryBudget",
    "RetryBudgetConfig",
    "SHED",
    "STALE",
    "ServiceConfig",
    "ServiceCostModel",
    "ServiceMetrics",
    "StaticLimiter",
    "run_load",
    "run_open_load",
    "run_open_loop",
]

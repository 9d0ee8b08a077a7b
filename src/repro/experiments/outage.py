"""Experiment X4 -- cache availability across a backend outage.

"Can Increasing the Hit Ratio Hurt Cache Throughput?" observes that
offline hit ratio and online serving behaviour can diverge; the paper's
own §2 argues FIFO-family policies are built for *serving*.  This
experiment measures that directly: each policy fronts the same failing
backend through a :class:`~repro.service.service.CacheService`, a
synthetic Zipf workload is replayed on a virtual clock, and a total
backend outage is injected mid-run.

During the outage, every request the cache cannot answer -- fresh hit
or serve-stale -- becomes a user-visible error, so the figures of merit
are:

* **availability** -- fraction of requests served a value (fresh or
  stale);
* **effective hit ratio** -- fraction served *from the cache*
  (fresh hits + stale serves), the hit ratio users actually
  experienced;
* **fresh hit ratio** -- the classic offline-style hit ratio, for
  contrast.

Everything runs on a :class:`~repro.exec.clock.VirtualClock` with a
fixed per-request tick, so the run is deterministic and sleepless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.tables import render_table
from repro.exec.clock import VirtualClock
from repro.exec.retry import RetryPolicy
from repro.experiments.common import QUICK, CorpusConfig, write_result
from repro.policies.registry import make
from repro.service.backend import FaultInjectedBackend, InMemoryBackend
from repro.service.breaker import BreakerConfig
from repro.service.faults import BackendFaultPlan
from repro.service.loadgen import LoadReport, run_load
from repro.service.service import CacheService, ServiceConfig
from repro.traces.synthetic import zipf_trace

#: the comparison the issue asks for: the classic eager-promotion
#: baseline vs the paper's lazy-promotion FIFO vs its QD+LP design
POLICIES = ["LRU", "FIFO-Reinsertion", "QD-LP-FIFO"]

#: virtual seconds between consecutive requests
TICK = 0.01


@dataclass(frozen=True)
class OutageScenario:
    """Workload + fault schedule for one outage run (validated)."""

    num_objects: int = 2000
    num_requests: int = 20000
    zipf_alpha: float = 1.0
    cache_fraction: float = 0.1
    # TTLs are fractions of the run's virtual duration so every tier
    # (tiny/quick/full) exercises expiry and serve-stale identically.
    ttl_fraction: float = 0.10
    stale_fraction: float = 0.35
    negative_fraction: float = 0.005
    outage_start: float = 0.4   # fraction of the run
    outage_end: float = 0.7
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_objects < 1 or self.num_requests < 1:
            raise ValueError("num_objects and num_requests must be >= 1")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ValueError(
                f"cache_fraction must be in (0, 1], "
                f"got {self.cache_fraction}")
        if self.ttl_fraction <= 0 or self.stale_fraction < 0:
            raise ValueError(
                f"ttl_fraction must be > 0 and stale_fraction >= 0, "
                f"got {self.ttl_fraction} / {self.stale_fraction}")
        if not 0.0 <= self.outage_start < self.outage_end <= 1.0:
            raise ValueError(
                f"outage window must satisfy 0 <= start < end <= 1, "
                f"got [{self.outage_start}, {self.outage_end}]")

    @property
    def duration(self) -> float:
        """Virtual length of the whole run in seconds."""
        return self.num_requests * TICK

    @property
    def ttl(self) -> float:
        return self.ttl_fraction * self.duration

    @property
    def stale_ttl(self) -> float:
        return self.stale_fraction * self.duration

    @property
    def negative_ttl(self) -> float:
        return self.negative_fraction * self.duration

    def window(self) -> tuple:
        """The outage window in virtual seconds."""
        return (self.outage_start * self.duration,
                self.outage_end * self.duration)


@dataclass
class PolicyOutageRow:
    """Measured serving behaviour of one policy across the outage."""

    policy: str
    report: LoadReport

    @property
    def availability(self) -> float:
        return self.report.availability

    @property
    def effective_hit_ratio(self) -> float:
        return self.report.effective_hit_ratio

    @property
    def fresh_hit_ratio(self) -> float:
        return self.report.outcomes["hit"] / max(1, self.report.requests)


@dataclass
class OutageResult:
    """All policies' rows plus the scenario they shared."""

    rows: List[PolicyOutageRow]
    scenario: OutageScenario

    def row(self, policy: str) -> PolicyOutageRow:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise KeyError(f"no row for policy {policy!r}")

    def render(self) -> str:
        start, end = self.scenario.window()
        headers = ["policy", "availability", "eff. hit ratio",
                   "fresh hit ratio", "stale", "errors", "shed",
                   "breaker trips"]
        body = []
        for row in self.rows:
            trips = sum(1 for _, _, dst in row.report.breaker_transitions
                        if dst == "open")
            body.append([
                row.policy,
                row.availability,
                row.effective_hit_ratio,
                row.fresh_hit_ratio,
                row.report.outcomes["stale"],
                row.report.outcomes["error"],
                row.report.outcomes["shed"],
                trips,
            ])
        return render_table(
            headers, body,
            title=f"X4: serving through a backend outage "
                  f"(t={start:.0f}s..{end:.0f}s of "
                  f"{self.scenario.duration:.0f}s, "
                  f"{self.scenario.num_requests} requests)",
            precision=4)


def run_policy(policy_name: str, scenario: OutageScenario,
               keys: List[int]) -> PolicyOutageRow:
    """Replay the scenario through one policy's service instance."""
    start, end = scenario.window()
    clock = VirtualClock()
    plan = BackendFaultPlan().outage(start, end)
    backend = FaultInjectedBackend(InMemoryBackend(), plan, clock)
    capacity = max(2, int(scenario.num_objects * scenario.cache_fraction))
    service = CacheService(
        make(policy_name, capacity),
        backend,
        ServiceConfig(
            ttl=scenario.ttl,
            stale_ttl=scenario.stale_ttl,
            negative_ttl=scenario.negative_ttl,
            retry=RetryPolicy(max_attempts=2, base_delay=0.005,
                              timeout=None),
            breaker=BreakerConfig(failure_threshold=5, reset_timeout=2.0),
        ),
        clock=clock,
    )
    report = run_load(service, keys, threads=1, tick=TICK)
    report.check_accounting()
    return PolicyOutageRow(policy=policy_name, report=report)


def run(config: CorpusConfig = QUICK,
        scenario: Optional[OutageScenario] = None) -> OutageResult:
    """Run the outage comparison and persist the rendered table.

    The corpus tier only scales the synthetic workload length; the
    fault schedule is fractional, so every tier sees the same relative
    outage.
    """
    if scenario is None:
        scenario = OutageScenario(
            num_requests=max(1000, int(20000 * config.scale)),
            num_objects=max(100, int(2000 * config.scale)),
        )
    rng = np.random.default_rng(scenario.seed)
    keys = zipf_trace(scenario.num_objects, scenario.num_requests,
                      scenario.zipf_alpha, rng).tolist()
    rows = [run_policy(name, scenario, keys) for name in POLICIES]
    result = OutageResult(rows=rows, scenario=scenario)
    write_result("outage", result.render())
    return result


__all__ = [
    "POLICIES",
    "TICK",
    "OutageResult",
    "OutageScenario",
    "PolicyOutageRow",
    "run",
    "run_policy",
]

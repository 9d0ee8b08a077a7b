"""Experiment X3-cluster -- killing a shard of a sharded cache cluster.

X4 (:mod:`repro.experiments.outage`) asks what one cache node does when
its *backend* dies.  This experiment promotes the question to the
deployment the paper actually targets -- a fleet of cache shards behind
consistent hashing -- and kills a *shard* instead: one of four
:class:`~repro.service.service.CacheService` fault domains goes dark
for a window mid-run while a Zipf+Pareto workload replays through the
:class:`~repro.cluster.cluster.CacheCluster` router.

Measured per policy (LRU vs FIFO-Reinsertion vs QD-LP-FIFO), with hot-
key replication on and off:

* **availability** and **effective hit ratio**, cluster-wide and per
  phase (before / during / after the kill window);
* **p99 latency** over the whole run;
* replica hits and failover behaviour during the window.

The punchline mirrors the single-node result at fleet scale: the
eviction policy decides the *hit ratio floor* each shard contributes,
while replication decides whether a shard loss is invisible
(availability stays ~100%, the dead shard's hot arc serves from
replicas) or a 1/N availability hole.  Everything runs on one shared
:class:`~repro.exec.clock.VirtualClock`, so the kill window lands on
the same request index in every arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import render_table
from repro.exec.clock import VirtualClock
from repro.exec.retry import RetryPolicy
from repro.experiments.common import QUICK, CorpusConfig, write_result
from repro.policies.registry import make
from repro.service.breaker import BreakerConfig
from repro.service.loadgen import SERVED, LoadReport, run_load
from repro.service.service import ServiceConfig
from repro.cluster.cluster import ClusterConfig, build_cluster
from repro.cluster.workload import make_cluster_workload

#: same contenders as X4: eager promotion vs lazy promotion vs QD+LP
POLICIES = ["LRU", "FIFO-Reinsertion", "QD-LP-FIFO"]

#: virtual seconds between consecutive requests
TICK = 0.01

PHASE_NAMES = ("before", "during", "after")


@dataclass(frozen=True)
class ClusterScenario:
    """Workload + kill schedule for one cluster run (validated)."""

    shards: int = 4
    killed_shard: str = "s1"
    num_requests: int = 20000
    universe: int = 100_000
    zipf_alpha: float = 1.1
    shard_capacity: int = 500
    replicas: int = 1
    hot_key_threshold: int = 4
    front_cache_size: int = 16
    kill_start: float = 0.4     # fraction of the run
    kill_end: float = 0.7
    ttl_fraction: float = 0.5
    stale_fraction: float = 0.5
    backend_latency: float = 0.004   # per-fetch origin latency (virtual s)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.shards < 2:
            raise ValueError(
                f"a kill experiment needs >= 2 shards, got {self.shards}")
        if self.num_requests < 1 or self.universe < 1:
            raise ValueError("num_requests and universe must be >= 1")
        if self.shard_capacity < 2:
            raise ValueError(
                f"shard_capacity must be >= 2, got {self.shard_capacity}")
        if not 0.0 <= self.kill_start < self.kill_end <= 1.0:
            raise ValueError(
                f"kill window must satisfy 0 <= start < end <= 1, "
                f"got [{self.kill_start}, {self.kill_end}]")
        valid = {f"s{i}" for i in range(self.shards)}
        if self.killed_shard not in valid:
            raise ValueError(
                f"killed_shard must be one of {sorted(valid)}, "
                f"got {self.killed_shard!r}")

    @property
    def duration(self) -> float:
        """Virtual length of the whole run in seconds."""
        return self.num_requests * TICK

    def window(self) -> Tuple[float, float]:
        """The kill window in virtual seconds."""
        return (self.kill_start * self.duration,
                self.kill_end * self.duration)


@dataclass
class ClusterOutageRow:
    """One (policy, replication) arm's measurements."""

    policy: str
    replicas: int
    report: LoadReport

    @property
    def availability(self) -> float:
        return self.report.availability

    @property
    def effective_hit_ratio(self) -> float:
        return self.report.effective_hit_ratio

    def phase_availability(self) -> Dict[str, float]:
        """Availability before / during / after the kill window."""
        out: Dict[str, float] = {}
        for name, delta in zip(PHASE_NAMES, self.report.phases()):
            total = delta["requests"]
            served = sum(delta[outcome] for outcome in SERVED)
            out[name] = served / total if total else 0.0
        return out


@dataclass
class ClusterOutageResult:
    """Every arm plus the scenario they shared."""

    rows: List[ClusterOutageRow]
    scenario: ClusterScenario

    def row(self, policy: str, replicas: int) -> ClusterOutageRow:
        for row in self.rows:
            if row.policy == policy and row.replicas == replicas:
                return row
        raise KeyError(f"no row for ({policy!r}, replicas={replicas})")

    def render(self) -> str:
        start, end = self.scenario.window()
        headers = ["policy", "replicas", "availability",
                   "avail (during)", "eff. hit ratio", "replica hits",
                   "errors", "p99 (ms)"]
        body = []
        for row in self.rows:
            phases = row.phase_availability()
            body.append([
                row.policy,
                row.replicas,
                row.availability,
                phases["during"],
                row.effective_hit_ratio,
                row.report.outcomes["replica_hit"],
                row.report.outcomes["error"],
                row.report.latency_p99 * 1e3,
            ])
        return render_table(
            headers, body,
            title=f"X3-cluster: killing shard "
                  f"{self.scenario.killed_shard} of "
                  f"{self.scenario.shards} "
                  f"(t={start:.0f}s..{end:.0f}s of "
                  f"{self.scenario.duration:.0f}s, "
                  f"{self.scenario.num_requests} requests)",
            precision=4)


def run_arm(policy_name: str, replicas: int, scenario: ClusterScenario,
            keys: List[str]) -> ClusterOutageRow:
    """Replay the scenario through one (policy, replication) cluster."""
    start, end = scenario.window()
    clock = VirtualClock()
    cluster = build_cluster(
        lambda: make(policy_name, scenario.shard_capacity),
        shards=scenario.shards,
        config=ClusterConfig(
            replicas=replicas,
            hot_key_threshold=scenario.hot_key_threshold,
            front_cache_size=scenario.front_cache_size,
        ),
        service_config=ServiceConfig(
            ttl=scenario.ttl_fraction * scenario.duration,
            stale_ttl=scenario.stale_fraction * scenario.duration,
            retry=RetryPolicy(max_attempts=2, base_delay=0.005,
                              timeout=None),
            breaker=BreakerConfig(failure_threshold=5,
                                  reset_timeout=2.0),
        ),
        clock=clock,
    )
    if scenario.backend_latency:
        for plan in cluster.plans.values():
            plan.base_latency(scenario.backend_latency)
    cluster.kill(scenario.killed_shard, start, end)
    report = run_load(cluster, keys, threads=1, tick=TICK,
                      checkpoints=[start, end])
    report.check_accounting()
    cluster.metrics.check_conservation()
    return ClusterOutageRow(policy=policy_name, replicas=replicas,
                            report=report)


def run(config: CorpusConfig = QUICK,
        scenario: Optional[ClusterScenario] = None) -> ClusterOutageResult:
    """Run the shard-kill comparison and persist the rendered table.

    Each policy runs twice -- with the scenario's replication and with
    replication disabled -- so the table shows the availability gap a
    replica buys at identical hit-ratio economics.
    """
    if scenario is None:
        scenario = ClusterScenario(
            num_requests=max(2000, int(20000 * config.scale)),
            universe=max(1000, int(100_000 * config.scale)),
            shard_capacity=max(50, int(500 * config.scale)),
        )
    workload = make_cluster_workload(
        scenario.num_requests, universe=scenario.universe,
        alpha=scenario.zipf_alpha, seed=scenario.seed)
    rows = []
    for name in POLICIES:
        for replicas in (scenario.replicas, 0):
            rows.append(run_arm(name, replicas, scenario, workload.keys))
    result = ClusterOutageResult(rows=rows, scenario=scenario)
    write_result("outage-cluster", result.render())
    return result


__all__ = [
    "PHASE_NAMES",
    "POLICIES",
    "TICK",
    "ClusterOutageResult",
    "ClusterOutageRow",
    "ClusterScenario",
    "run",
    "run_arm",
]

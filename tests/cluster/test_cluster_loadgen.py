"""The load harnesses against a cluster, and the cluster Zipf workload.

``run_load`` and ``run_open_load`` take a service or a cluster; the
cluster-specific behaviour (per-shard reports, kill windows, replica
hits, promotions and retries summed over shards) is tested here, and
the conservation invariants for both kinds of target at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import well_formed_rows
from repro.exec.clock import VirtualClock
from repro.exec.retry import RetryPolicy
from repro.obs import RequestTracer
from repro.policies import LRU
from repro.cluster import (
    ClusterConfig,
    build_cluster,
    make_cluster_workload,
)
from repro.cluster.workload import _zipf_ranks
from repro.service import (
    CacheService,
    InMemoryBackend,
    ServiceConfig,
    run_load,
    run_open_load,
)
from repro.service.overload import (
    AdmissionQueue,
    PoissonArrivals,
    RetryBudgetConfig,
    ServiceCostModel,
    StaticLimiter,
)


def virtual_cluster(replicas=1, shards=4):
    return build_cluster(
        lambda: LRU(100),
        shards=shards,
        config=ClusterConfig(replicas=replicas, hot_key_threshold=3),
        clock=VirtualClock(),
    )


class TestWorkload:
    def test_deterministic_for_same_seed(self):
        one = make_cluster_workload(500, universe=1000, seed=9)
        two = make_cluster_workload(500, universe=1000, seed=9)
        assert one.keys == two.keys

    def test_keys_match_the_recorded_stream(self):
        # Recorded before the unread object sizes were dropped from the
        # workload: the keys are drawn first, so they must not move.
        assert make_cluster_workload(24, universe=1000, seed=9).keys == [
            "k260", "k3", "k26", "k110", "k64", "k407", "k236", "k419",
            "k1", "k8", "k11", "k1", "k1", "k178", "k832", "k117", "k3",
            "k59", "k3", "k79", "k3", "k115", "k874", "k860"]
        # The default 2M-key universe takes the rejection sampler.
        assert make_cluster_workload(24, seed=42).keys == [
            "k1876445", "k3", "k316", "k2781", "k986374", "k481", "k5",
            "k48", "k507", "k3", "k12", "k127563", "k124", "k73385",
            "k9", "k417", "k4", "k48326", "k19010", "k3078", "k1",
            "k10", "k1", "k30"]

    def test_different_seed_differs(self):
        one = make_cluster_workload(500, universe=1000, seed=9)
        two = make_cluster_workload(500, universe=1000, seed=10)
        assert one.keys != two.keys

    def test_zipf_head_is_heavy(self):
        workload = make_cluster_workload(5000, universe=10000,
                                         alpha=1.2, seed=1)
        top = max(workload.keys.count("k1"), workload.keys.count("k2"))
        assert top > 5000 / 10000 * 10   # far above uniform

    def test_large_universe_uses_rejection_sampler(self):
        rng = np.random.default_rng(3)
        ranks = _zipf_ranks(rng, 2000, 2_000_000, 1.1)
        assert ranks.min() >= 1
        assert ranks.max() <= 2_000_000

    def test_large_universe_needs_alpha_above_one(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="alpha"):
            _zipf_ranks(rng, 10, 2_000_000, 1.0)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            make_cluster_workload(0)
        with pytest.raises(ValueError):
            _zipf_ranks(rng, 10, 0, 1.0)
        with pytest.raises(ValueError):
            _zipf_ranks(rng, 10, 5, 0.0)

    def test_describe_mentions_scale(self):
        workload = make_cluster_workload(100, universe=500, seed=2)
        text = workload.describe()
        assert "100 requests" in text and "500-key" in text


class TestRunClusterLoad:
    def test_deterministic_counts_and_invariant(self):
        cluster = virtual_cluster()
        keys = [f"k{i % 20}" for i in range(200)]
        report = run_load(cluster, keys, threads=1, tick=0.01)
        report.check_accounting()
        assert report.requests == 200
        assert report.outcomes["miss"] == 20
        assert report.outcomes["hit"] == 180
        assert report.availability == 1.0
        assert len(report.shards) == 4

    def test_validation(self):
        cluster = virtual_cluster()
        with pytest.raises(ValueError, match="threads"):
            run_load(cluster, ["k"], threads=0)
        with pytest.raises(ValueError, match="tick"):
            run_load(cluster, ["k"], tick=-1)
        with pytest.raises(ValueError, match="threads=1"):
            run_load(cluster, ["k"], threads=2, tick=0.1)
        with pytest.raises(ValueError, match="checkpoints"):
            run_load(cluster, ["k"], checkpoints=[1.0])

    def test_tick_requires_virtual_clock(self):
        cluster = build_cluster(lambda: LRU(10), shards=2)
        with pytest.raises(ValueError, match="VirtualClock"):
            run_load(cluster, ["k"], tick=0.1)

    def test_checkpoints_split_phases_exactly(self):
        cluster = virtual_cluster()
        keys = [f"k{i}" for i in range(100)]
        report = run_load(cluster, keys, threads=1, tick=0.1,
                          checkpoints=[3.0, 7.0])
        phases = report.phases()
        assert [p["requests"] for p in phases] == [29, 40, 31]
        assert sum(p["requests"] for p in phases) == 100

    def test_kill_window_degrades_only_the_middle_phase(self):
        cluster = virtual_cluster(replicas=0)
        cluster.kill("s1", 3.0, 7.0)
        keys = [f"k{i}" for i in range(100)]
        report = run_load(cluster, keys, threads=1, tick=0.1,
                          checkpoints=[3.0, 7.0])
        before, during, after = report.phases()
        assert before["error"] == 0 and after["error"] == 0
        assert during["error"] > 0

    def test_replication_keeps_availability_during_kill(self):
        keys = make_cluster_workload(2000, universe=300, alpha=1.1,
                                     seed=5).keys
        results = {}
        for replicas in (0, 1):
            cluster = virtual_cluster(replicas=replicas)
            cluster.kill("s1", 5.0, 15.0)
            report = run_load(cluster, keys, threads=1, tick=0.01)
            report.check_accounting()
            results[replicas] = report
        assert results[1].availability > results[0].availability
        assert results[1].availability >= 0.99
        assert results[1].outcomes["replica_hit"] > 0

    def test_multi_threaded_conservation(self):
        cluster = build_cluster(lambda: LRU(50), shards=3)
        keys = [f"k{i % 40}" for i in range(1000)]
        report = run_load(cluster, keys, threads=4)
        report.check_accounting()
        assert report.requests == 1000
        assert report.throughput > 0

    def test_render_mentions_everything(self):
        cluster = virtual_cluster()
        report = run_load(cluster, ["a", "a", "b"], threads=1)
        text = report.render()
        for token in ("replica_hit=", "availability", "eff hit ratio",
                      "shard s0", "p99"):
            assert token in text


class TestOpenClusterLoad:
    """Open-loop arrivals against the router: 7-outcome conservation."""

    def run_open(self, cluster, schedule, queue=None, limiter=None,
                 cost=None, keys=None, tracer=None):
        report = run_open_load(
            cluster, keys or [f"k{i}" for i in range(60)], schedule,
            queue=queue, limiter=limiter, cost=cost, tracer=tracer)
        report.check_conservation()
        return report

    def test_under_capacity_cluster_serves_everything(self):
        report = self.run_open(
            virtual_cluster(), PoissonArrivals(rate=50.0, duration=4.0,
                                               seed=1))
        assert report.offered > 0
        assert report.served == report.offered
        assert report.outcomes.get("dropped", 0) == 0

    def test_overloaded_cluster_conserves_with_drops(self):
        report = self.run_open(
            virtual_cluster(),
            PoissonArrivals(rate=1500.0, duration=3.0, seed=2),
            queue=AdmissionQueue(32, "drop-oldest", deadline=0.2),
            limiter=StaticLimiter(2),
            cost=ServiceCostModel(base_cost=0.01))
        assert report.outcomes["dropped"] > 0
        assert report.drop_ratio > 0.3
        # check_conservation already ran; spell the invariant out once
        # with every cluster outcome name so a regression reads clearly.
        total = sum(report.outcomes.get(name, 0)
                    for name in ("hit", "miss", "replica_hit", "stale",
                                 "shed", "dropped", "error"))
        assert total == report.offered

    def test_replica_hits_count_as_served_during_kill(self):
        cluster = virtual_cluster(replicas=1)
        cluster.kill("s1", 1.0, 3.0)
        keys = make_cluster_workload(2000, universe=100, alpha=1.1,
                                     seed=7).keys
        report = self.run_open(
            cluster, PoissonArrivals(rate=300.0, duration=5.0, seed=3),
            keys=keys)
        assert report.outcomes.get("replica_hit", 0) > 0
        assert report.served >= report.outcomes["replica_hit"]

    def test_promotions_aggregate_across_shards(self):
        cluster = virtual_cluster()
        report = self.run_open(
            cluster, PoissonArrivals(rate=100.0, duration=4.0, seed=4),
            cost=ServiceCostModel(promotion_cost=0.001),
            keys=[f"k{i % 10}" for i in range(50)])
        # LRU shards promote on every hit; the probe must see the sum.
        assert report.promotions > 0
        assert report.promotions == sum(
            service.policy.promotion_count
            for service in cluster.shards.values())

    @staticmethod
    def failing_cluster(clock, tracer=None):
        """Four shards whose backends fail every fetch, each with a
        4-attempt retry policy behind a small retry budget."""
        cluster = build_cluster(
            lambda: LRU(100), shards=4,
            config=ClusterConfig(replicas=0),
            service_config=ServiceConfig(
                retry=RetryPolicy(max_attempts=4, base_delay=0.001),
                retry_budget=RetryBudgetConfig(deposit=0.1, burst=2.0),
                breaker=None),
            clock=clock, tracer=tracer)
        for plan in cluster.plans.values():
            plan.outage(0.0, 1e9)
        return cluster

    def test_retries_are_summed_over_the_shard_budgets(self):
        cluster = self.failing_cluster(VirtualClock())
        report = self.run_open(
            cluster, PoissonArrivals(rate=50.0, duration=4.0, seed=5))
        assert report.outcomes["error"] == report.offered
        budgets = [service.retry_budget
                   for service in cluster.shards.values()]
        assert report.retries_granted == sum(b.granted for b in budgets)
        assert report.retries_denied == sum(b.denied for b in budgets)
        assert report.retries_granted > 0 and report.retries_denied > 0
        # Every shard spent its burst: the sum is more than any one.
        assert report.retries_granted > max(b.granted for b in budgets)

    def test_tracer_reaches_the_shards(self):
        clock = VirtualClock()
        tracer = RequestTracer(sample=1.0, seed=0, clock=clock)
        cluster = self.failing_cluster(clock, tracer)
        report = self.run_open(
            cluster, PoissonArrivals(rate=50.0, duration=2.0, seed=6),
            tracer=tracer)
        rows = well_formed_rows(tracer)
        assert rows and len(rows) == report.offered  # errors tail-keep
        names = {span["name"] for row in rows for span in row["spans"]}
        assert {"request", "cluster.get", "service.get"} <= names


def make_target(kind, clock=None):
    """An LRU service, or a 3-shard LRU cluster, on *clock*."""
    if kind == "service":
        return CacheService(LRU(60), InMemoryBackend(), ServiceConfig(),
                            clock=clock)
    return build_cluster(lambda: LRU(20), shards=3,
                         config=ClusterConfig(replicas=1,
                                              hot_key_threshold=3),
                         clock=clock)


@pytest.mark.parametrize("kind", ["service", "cluster"])
class TestBothTargets:
    """One conservation invariant per harness, for both kinds of target."""

    KEYS = [f"k{i % 90}" for i in range(1200)]

    def test_closed_loop_conserves_outcomes(self, kind):
        target = make_target(kind)
        report = run_load(target, self.KEYS, threads=4)
        report.check_accounting()
        assert report.requests == len(self.KEYS)
        assert (report.shards is None) == (kind == "service")

    def test_open_loop_conserves_outcomes(self, kind):
        target = make_target(kind, VirtualClock())
        report = run_open_load(
            target, self.KEYS,
            PoissonArrivals(rate=800.0, duration=2.0, seed=8),
            queue=AdmissionQueue(16, "drop-oldest", deadline=0.05),
            limiter=StaticLimiter(2),
            cost=ServiceCostModel(base_cost=0.004))
        report.check_conservation()
        assert report.outcomes.get("dropped", 0) > 0
        assert report.served > 0

"""Unit tests for the CacheCluster router and its helpers."""

from __future__ import annotations

import pytest

from repro.exec.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.policies import LRU
from repro.cluster import (
    CLUSTER_OUTCOMES,
    CacheCluster,
    ClusterConfig,
    FrontCache,
    HotKeyTracker,
    build_cluster,
)
from repro.service.backend import InMemoryBackend
from repro.service.service import CacheService, ServiceConfig


def small_cluster(replicas=1, shards=3, registry=None, clock=None,
                  **config_kw):
    clock = clock or VirtualClock()
    return build_cluster(
        lambda: LRU(64),
        shards=shards,
        config=ClusterConfig(replicas=replicas, hot_key_threshold=2,
                             **config_kw),
        clock=clock,
        registry=registry,
    )


class TestClusterConfig:
    @pytest.mark.parametrize("kwargs", [
        {"vnodes": 0},
        {"replicas": -1},
        {"hot_key_threshold": 0},
        {"hot_tracker_size": 0},
        {"front_cache_size": -1},
        {"front_cache_ttl": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    def test_defaults_are_valid(self):
        ClusterConfig()


class TestHotKeyTracker:
    def test_crosses_threshold(self):
        tracker = HotKeyTracker(size=16, threshold=3)
        assert not tracker.observe("k")
        assert not tracker.observe("k")
        assert tracker.observe("k")
        assert tracker.is_hot("k")
        assert not tracker.is_hot("cold")

    def test_hot_keys_sorted_hottest_first(self):
        tracker = HotKeyTracker(size=16, threshold=2)
        for _ in range(5):
            tracker.observe("a")
        for _ in range(3):
            tracker.observe("b")
        assert tracker.hot_keys() == ["a", "b"]

    def test_prunes_to_bounded_size(self):
        tracker = HotKeyTracker(size=10, threshold=2)
        for i in range(100):
            tracker.observe(f"one-hit-{i}")
        assert len(tracker._counts) <= 2 * tracker.size

    def test_prune_keeps_the_hot_head(self):
        tracker = HotKeyTracker(size=10, threshold=3)
        for _ in range(5):
            tracker.observe("hot")
        for i in range(100):
            tracker.observe(f"cold-{i}")
        assert tracker.is_hot("hot")

    def test_validation(self):
        with pytest.raises(ValueError):
            HotKeyTracker(size=0)
        with pytest.raises(ValueError):
            HotKeyTracker(threshold=0)


class TestFrontCache:
    def test_put_get_and_ttl_expiry(self):
        clock = VirtualClock()
        cache = FrontCache(size=2, ttl=1.0, clock=clock)
        cache.put("k", "v")
        assert cache.get("k") == ("v",)
        clock.advance(1.5)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_caches_none_values(self):
        cache = FrontCache(size=2, ttl=1.0, clock=VirtualClock())
        cache.put("k", None)
        assert cache.get("k") == (None,)

    def test_lru_eviction_order(self):
        cache = FrontCache(size=2, ttl=10.0, clock=VirtualClock())
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # touch: b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == (1,)
        assert cache.get("c") == (3,)

    def test_invalidate(self):
        cache = FrontCache(size=2, ttl=10.0, clock=VirtualClock())
        cache.put("a", 1)
        cache.invalidate("a")
        assert cache.get("a") is None


class TestClusterConstruction:
    def test_rejects_empty_shard_map(self):
        with pytest.raises(ValueError, match="at least one shard"):
            CacheCluster({})

    def test_rejects_non_service_shard(self):
        with pytest.raises(TypeError, match="CacheService"):
            CacheCluster({"s0": object()})

    def test_build_cluster_shares_the_clock(self):
        clock = VirtualClock()
        cluster = build_cluster(lambda: LRU(8), shards=3, clock=clock)
        assert all(service.clock is clock
                   for service in cluster.shards.values())
        assert set(cluster.plans) == set(cluster.shards)

    def test_build_cluster_rejects_bad_count(self):
        with pytest.raises(ValueError, match="shards"):
            build_cluster(lambda: LRU(8), shards=0)


class TestServingPath:
    def test_miss_then_hit_on_the_same_shard(self):
        cluster = small_cluster()
        first = cluster.get("k")
        second = cluster.get("k")
        assert first.outcome == "miss" and second.outcome == "hit"
        assert first.shard == second.shard == cluster.ring.primary("k")
        assert second.value == first.value == "value:k"

    def test_conservation_over_mixed_traffic(self):
        cluster = small_cluster()
        for i in range(300):
            cluster.get(f"k{i % 40}")
        cluster.metrics.check_conservation()
        assert cluster.metrics.requests == 300

    def test_every_outcome_key_present_in_snapshot(self):
        cluster = small_cluster()
        cluster.get("k")
        snap = cluster.metrics.snapshot()
        for outcome in CLUSTER_OUTCOMES:
            assert outcome in snap

    def test_hot_key_replicated_to_distinct_shards(self):
        cluster = small_cluster(replicas=1)
        for _ in range(4):
            cluster.get("hot")
        owners = cluster.ring.owners("hot", 2)
        replica = cluster.shards[owners[1]]
        assert replica.peek("hot") is not None
        assert cluster.metrics.snapshot()["replications"] >= 1

    def test_cold_key_not_replicated(self):
        cluster = small_cluster(replicas=1)
        cluster.get("cold-once")
        owners = cluster.ring.owners("cold-once", 2)
        assert cluster.shards[owners[1]].peek("cold-once") is None

    def test_front_cache_absorbs_hot_keys(self):
        cluster = small_cluster(front_cache_size=4)
        for _ in range(5):
            cluster.get("viral")
        snap = cluster.metrics.snapshot()
        assert snap["front_hits"] >= 1
        primary = cluster.ring.primary("viral")
        served_by_shard = cluster.shards[primary].metrics.snapshot()
        assert served_by_shard["requests"] < 5


class TestFaultDomains:
    def test_down_shard_serves_replica_hits(self):
        cluster = small_cluster(replicas=1)
        for _ in range(3):
            cluster.get("hot")          # hot + replicated
        primary = cluster.ring.primary("hot")
        cluster.set_down(primary)
        result = cluster.get("hot")
        assert result.outcome == "replica_hit"
        assert result.shard != primary
        assert result.value == "value:hot"

    def test_down_shard_cold_key_fails_over_to_replica_shard(self):
        cluster = small_cluster(replicas=1)
        primary = cluster.ring.primary("cold")
        cluster.set_down(primary)
        result = cluster.get("cold")
        assert result.outcome == "miss"          # fetched via successor
        assert result.shard == cluster.ring.owners("cold", 2)[1]

    def test_down_shard_without_replicas_errors(self):
        cluster = small_cluster(replicas=0)
        primary = cluster.ring.primary("k")
        cluster.set_down(primary)
        result = cluster.get("k")
        assert result.outcome == "error"
        assert not result.ok
        cluster.metrics.check_conservation()

    def test_kill_window_opens_and_closes_on_the_clock(self):
        clock = VirtualClock()
        cluster = small_cluster(replicas=0, clock=clock)
        primary = cluster.ring.primary("k")
        cluster.kill(primary, 5.0, 10.0)
        assert cluster.get("k").outcome == "miss"     # before the window
        clock.advance(6.0)
        assert cluster.shard_is_down(primary)
        assert cluster.get("k").outcome == "error"
        clock.advance(10.0)
        assert not cluster.shard_is_down(primary)
        assert cluster.get("k").outcome == "hit"      # contents survived

    def test_kill_rejects_bad_window_and_unknown_shard(self):
        cluster = small_cluster()
        with pytest.raises(ValueError, match="end > start"):
            cluster.kill("s0", 5.0, 5.0)
        with pytest.raises(KeyError, match="no shard"):
            cluster.kill("nope", 0.0, 1.0)

    def test_set_down_and_back_up(self):
        cluster = small_cluster(replicas=0)
        cluster.set_down("s0")
        assert cluster.shard_is_down("s0")
        cluster.set_down("s0", False)
        assert not cluster.shard_is_down("s0")


class TestFastPathsSeeStateChanges:
    """A cluster that starts with no down windows and a closed breaker
    skips locks and clock reads on its checks; the first state change
    must still reach the very next request."""

    @staticmethod
    def shard_up(registry, shard):
        return next(row["value"] for row in registry.snapshot()
                    if row["name"] == "cluster_shard_up"
                    and row["labels"] == {"shard": shard})

    def test_kill_window_fails_over_and_flips_the_up_gauge(self):
        clock = VirtualClock()
        registry = MetricsRegistry()
        cluster = small_cluster(replicas=1, clock=clock, registry=registry)
        primary, successor = cluster.ring.owners("k", 2)
        assert cluster.get("k").shard == primary
        assert self.shard_up(registry, primary) == 1
        cluster.kill(primary, 5.0, 10.0)
        clock.advance(6.0)
        result = cluster.get("k")
        assert result.outcome == "miss" and result.shard == successor
        assert self.shard_up(registry, primary) == 0
        clock.advance(4.0)
        assert cluster.get("k").shard == primary
        assert self.shard_up(registry, primary) == 1

    def test_set_down_reaches_the_next_get(self):
        registry = MetricsRegistry()
        cluster = small_cluster(replicas=1, registry=registry)
        primary, successor = cluster.ring.owners("k", 2)
        cluster.get("k")
        cluster.set_down(primary)
        result = cluster.get("k")
        assert result.outcome == "miss" and result.shard == successor
        assert self.shard_up(registry, primary) == 0
        cluster.set_down(primary, False)
        assert cluster.get("k").shard == primary
        assert self.shard_up(registry, primary) == 1

    def test_breaker_trip_and_half_open_after_reset_timeout(self):
        clock = VirtualClock()
        cluster = small_cluster(replicas=0, shards=1, clock=clock)
        shard = cluster.shards["s0"]
        threshold = shard.config.breaker.failure_threshold
        for i in range(threshold):
            cluster.plans["s0"].fail(f"bad{i}")
        assert not shard.breaker_open
        for i in range(threshold):
            assert cluster.get(f"bad{i}").outcome == "error"
        assert shard.breaker_open
        clock.advance(shard.config.breaker.reset_timeout)
        assert not shard.breaker_open
        assert shard.breaker.state == "half-open"


class TestRebalancing:
    def fill(self, cluster, n=400):
        for i in range(n):
            cluster.get(f"k{i}")

    def new_shard(self, cluster):
        return CacheService(LRU(64), InMemoryBackend(), ServiceConfig(),
                            clock=cluster.clock)

    def test_join_migrates_only_moved_keys(self):
        cluster = small_cluster(shards=4)
        self.fill(cluster)
        cached_before = sum(len(s.cached_keys())
                            for s in cluster.shards.values())
        report = cluster.add_shard("s9", self.new_shard(cluster))
        assert report.joined == "s9"
        assert report.keys_before == cached_before
        assert 0 < report.moved_fraction < 2 / 4     # the issue's bound
        assert report.migrated + report.dropped == report.keys_moved
        # Migrated entries now serve as hits from the new shard.
        # (capacity may evict some of the 'migrated' copies)
        migrated = cluster.shards["s9"].cached_keys()
        assert 0 < len(migrated) <= report.migrated
        for key in migrated[:10]:
            assert cluster.get(key).outcome == "hit"

    def test_leave_moves_only_the_leavers_entries(self):
        cluster = small_cluster(shards=4)
        self.fill(cluster)
        leaving_keys = set(cluster.shards["s1"].cached_keys())
        report = cluster.remove_shard("s1")
        assert report.left == "s1"
        assert report.keys_moved == len(leaving_keys)
        assert set(report.by_shard) == {"s1"}
        assert "s1" not in cluster.shards
        # The migrated entries serve from their new owners.
        hits = sum(1 for key in list(leaving_keys)[:20]
                   if cluster.get(key).outcome == "hit")
        assert hits > 0

    def test_remove_without_migration_drops_entries(self):
        cluster = small_cluster(shards=3)
        self.fill(cluster, 100)
        report = cluster.remove_shard("s2", migrate=False)
        assert report.migrated == 0
        assert report.dropped == report.keys_moved

    def test_membership_validation(self):
        cluster = small_cluster(shards=2)
        with pytest.raises(ValueError, match="already"):
            cluster.add_shard("s0", self.new_shard(cluster))
        with pytest.raises(TypeError, match="CacheService"):
            cluster.add_shard("sX", object())
        cluster.remove_shard("s1")
        with pytest.raises(ValueError, match="last shard"):
            cluster.remove_shard("s0")

    def test_render_mentions_the_event(self):
        cluster = small_cluster(shards=2)
        self.fill(cluster, 50)
        report = cluster.add_shard("s9", self.new_shard(cluster))
        assert "join s9" in report.render()


class TestClusterObservability:
    def test_ring_and_up_gauges(self):
        registry = MetricsRegistry()
        cluster = small_cluster(shards=3, registry=registry)
        rows = {(r["name"], tuple(sorted((r.get("labels") or {}).items()))):
                r for r in registry.snapshot()}
        assert rows[("cluster_ring_nodes", ())]["value"] == 3
        assert rows[("cluster_shard_up", (("shard", "s1"),))]["value"] == 1

    def test_gauges_track_kill_and_membership(self):
        registry = MetricsRegistry()
        cluster = small_cluster(shards=3, registry=registry, replicas=0)
        cluster.set_down("s1")
        cluster.get("anything")      # serving path refreshes the gauge
        cluster.shard_is_down("s1")
        cluster.remove_shard("s2")
        rows = {(r["name"], tuple(sorted((r.get("labels") or {}).items()))):
                r for r in registry.snapshot()}
        assert rows[("cluster_ring_nodes", ())]["value"] == 2
        assert rows[("cluster_shard_up", (("shard", "s2"),))]["value"] == 0

    def test_per_shard_service_labels_in_registry(self):
        registry = MetricsRegistry()
        cluster = small_cluster(shards=2, registry=registry)
        cluster.get("k")
        shard_labels = {r["labels"]["shard"]
                        for r in registry.snapshot()
                        if r["name"] == "service_requests_total"}
        assert shard_labels == {"s0", "s1"}

    def test_breaker_transitions_tagged_by_shard(self):
        cluster = small_cluster(shards=2)
        for name, plan in cluster.plans.items():
            for i in range(20):
                plan.fail(f"k{i}")
        for i in range(20):
            cluster.get(f"k{i}")
        transitions = cluster.breaker_transitions()
        assert transitions, "breaker should have tripped"
        assert all(shard in cluster.shards
                   for _, shard, _, _ in transitions)
        times = [t for t, _, _, _ in transitions]
        assert times == sorted(times)


class TestOneSourceOfTruth:
    """The metrics views read their counts back from the registry."""

    @staticmethod
    def counter_key(name, labels):
        text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        return f"{name}{{{text}}}" if text else name

    def test_private_registries_hold_every_count(self):
        from repro.cluster import make_cluster_workload
        from repro.service import run_load

        cluster = build_cluster(
            lambda: LRU(40), shards=4,
            config=ClusterConfig(replicas=1, hot_key_threshold=3),
            clock=VirtualClock())
        cluster.kill("s1", 10.0, 20.0)
        keys = make_cluster_workload(3000, universe=400, alpha=1.1,
                                     seed=7).keys
        report = run_load(cluster, keys, threads=1, tick=0.01,
                          checkpoints=[10.0, 20.0])
        during = report.phases()[1]
        assert during["replica_hit"] + during["error"] > 0   # kill felt
        views = [cluster.metrics] + [shard.metrics
                                     for shard in cluster.shards.values()]
        assert len({id(view.registry) for view in views}) == len(views)
        for view in views:
            counters = view.registry.counter_values()
            snap = view.snapshot()
            for outcome in view.outcomes:
                key = self.counter_key(f"{view.prefix}_requests_total",
                                       {"outcome": outcome, **view.labels})
                assert snap[outcome] == counters[key], (view.labels, key)
            for event, (name, _help) in view.events.items():
                key = self.counter_key(name, view.labels)
                assert snap[event] == counters[key], (view.labels, key)
            view.check_conservation()
        assert cluster.metrics.requests == len(keys)

"""The closed-loop load harness (deterministic paths + real threads)."""

from __future__ import annotations

import pytest

from repro.exec.clock import VirtualClock
from repro.obs import MetricsRegistry, TimeSeriesRecorder
from repro.policies.lru import LRU
from repro.service.backend import FaultInjectedBackend, InMemoryBackend
from repro.service.faults import BackendFaultPlan
from repro.obs.metrics import percentile
from repro.service.loadgen import LoadInterrupted, LoadReport, run_load
from repro.service.service import CacheService, ServiceConfig


def virtual_service(plan=None, config=None, capacity=50):
    clock = VirtualClock()
    origin = InMemoryBackend()
    backend = (FaultInjectedBackend(origin, plan, clock)
               if plan is not None else origin)
    return CacheService(LRU(capacity), backend,
                        config or ServiceConfig(), clock=clock)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank(self):
        values = list(range(1, 101))       # 1..100
        assert percentile(values, 0.0) == 1
        assert percentile(values, 1.0) == 100
        # ceil-based nearest rank: ceil(0.5 * 100) = rank 50 -> value 50
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 0.991) == 100

    def test_even_length_p50_is_lower_middle(self):
        # The old round()-based rank used banker's rounding, so p50 of
        # an even-length list picked whichever middle the tie rounded
        # to.  Ceil-based nearest rank always takes the lower middle.
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.5) == 3.0

    def test_odd_length_p50_is_middle(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_single_value_every_fraction(self):
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert percentile([7.0], fraction) == 7.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 1.0) == 5.0

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)


class TestRunLoadValidation:
    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError, match="threads"):
            run_load(virtual_service(), [1], threads=0)

    def test_rejects_negative_tick(self):
        with pytest.raises(ValueError, match="tick"):
            run_load(virtual_service(), [1], tick=-0.1)

    def test_tick_requires_single_thread(self):
        with pytest.raises(ValueError, match="threads=1"):
            run_load(virtual_service(), [1], threads=2, tick=0.1)

    def test_tick_requires_virtual_clock(self):
        service = CacheService(LRU(4), InMemoryBackend())
        with pytest.raises(ValueError, match="VirtualClock"):
            run_load(service, [1], tick=0.1)


class TestDeterministicRun:
    def test_counts_and_invariant(self):
        service = virtual_service()
        keys = [0, 1, 0, 1, 2, 0]
        report = run_load(service, keys, threads=1, tick=0.01)
        report.check_accounting()
        assert report.requests == 6
        assert report.outcomes["miss"] == 3
        assert report.outcomes["hit"] == 3
        assert report.availability == 1.0
        assert report.threads == 1
        assert not report.interrupted

    def test_latency_percentiles_reflect_injected_latency(self):
        plan = BackendFaultPlan().base_latency(0.004)
        service = virtual_service(plan)
        report = run_load(service, [1, 2, 3, 4, 1, 2, 3, 4], threads=1)
        # 4 misses at 4ms (virtual), 4 hits at 0ms.
        assert report.latency_p99 == pytest.approx(0.004)
        assert report.latency_p50 in (0.0, pytest.approx(0.004))

    def test_render_mentions_every_outcome(self):
        report = run_load(virtual_service(), [1, 1, 2], threads=1)
        text = report.render()
        for token in ("hit=", "miss=", "stale=", "shed=", "error=",
                      "availability", "p99"):
            assert token in text

    def test_accounting_error_raises(self):
        report = run_load(virtual_service(), [1, 2], threads=1)
        report.requests += 1  # corrupt it
        with pytest.raises(AssertionError, match="accounting"):
            report.check_accounting()

    def test_breaker_transitions_surface_in_report(self):
        plan = BackendFaultPlan()
        for key in range(10):
            plan.fail(key)
        service = virtual_service(plan)
        report = run_load(service, list(range(10)), threads=1)
        assert any(dst == "open" for _, _, dst in report.breaker_transitions)
        assert "breaker" in report.render()


class TestThreadedRun:
    def test_multi_threaded_counts_add_up(self):
        service = CacheService(LRU(20), InMemoryBackend(), ServiceConfig())
        keys = [k % 30 for k in range(2000)]
        report = run_load(service, keys, threads=4)
        report.check_accounting()
        assert report.requests == 2000
        assert report.outcomes["error"] == 0
        assert report.throughput > 0


class TestInterrupt:
    def test_partial_report_attached_on_interrupt(self):
        service = virtual_service()
        calls = {"n": 0}
        real_get = service.get

        def get_then_interrupt(key):
            calls["n"] += 1
            if calls["n"] > 5:
                raise KeyboardInterrupt
            return real_get(key)

        service.get = get_then_interrupt
        with pytest.raises(LoadInterrupted) as excinfo:
            run_load(service, list(range(100)), threads=1)
        report = excinfo.value.report
        assert report.interrupted
        assert report.requests == 5           # what completed before ^C
        report.check_accounting()


class TestServiceCheckpoints:
    """Phase checkpoints work on a single service as on a cluster."""

    def test_checkpoints_split_phases_exactly(self):
        report = run_load(virtual_service(), list(range(100)), threads=1,
                          tick=0.1, checkpoints=[3.0, 7.0])
        phases = report.phases()
        assert [p["requests"] for p in phases] == [29, 40, 31]
        assert [t for t, _ in report.checkpoints] == [3.0, 7.0]
        assert report.shards is None

    def test_outage_window_degrades_only_the_middle_phase(self):
        plan = BackendFaultPlan().outage(3.0, 7.0)
        service = virtual_service(plan, ServiceConfig(breaker=None))
        report = run_load(service, list(range(100)), threads=1, tick=0.1,
                          checkpoints=[3.0, 7.0])
        before, during, after = report.phases()
        assert before["error"] == 0 and after["error"] == 0
        assert during["error"] == during["requests"] == 40


class TestTimeseriesSampling:
    def test_clock_cadence_windows_cover_all_requests(self):
        registry = MetricsRegistry()
        clock = VirtualClock()
        service = CacheService(LRU(50), InMemoryBackend(),
                               ServiceConfig(), clock=clock,
                               registry=registry)
        recorder = TimeSeriesRecorder(registry, cadence=2.0)
        keys = [0, 1, 2] * 4                  # 3 misses, then hits
        run_load(service, keys, threads=1, tick=0.5,
                 timeseries=recorder)
        assert recorder.samples >= 2          # 6.0s of clock, 2s cadence
        recorder.sample(clock.now())          # tail window
        totals = {}
        for name in recorder.series_names():
            if name.startswith("service_requests_total"):
                totals[name] = sum(v for _, _, v in recorder.series(name))
        assert sum(totals.values()) == len(keys)
        assert totals["service_requests_total{outcome=miss}"] == 3.0
        assert totals["service_requests_total{outcome=hit}"] == 9.0


# ----------------------------------------------------------------------
# One LoadReport for both layers: a single node and a cluster
# ----------------------------------------------------------------------

def single_node_report(interrupted=False):
    return LoadReport(
        requests=10,
        outcomes={"hit": 4, "miss": 3, "stale": 1, "shed": 1, "error": 1},
        events={"coalesced": 2, "fetch_attempts": 5, "fetch_failures": 2,
                "negative_hits": 0},
        latency_p50=0.001, latency_p90=0.0025, latency_p99=0.004,
        elapsed=0.5, threads=2,
        breaker_transitions=[(1.0, "closed", "open"),
                             (3.5, "open", "half-open")],
        interrupted=interrupted)


def cluster_report(interrupted=False):
    return LoadReport(
        requests=10,
        outcomes={"hit": 3, "miss": 2, "replica_hit": 2, "stale": 1,
                  "shed": 1, "error": 1},
        events={"front_hits": 1, "replications": 4, "replica_probes": 3},
        latency_p50=0.001, latency_p90=0.0025, latency_p99=0.004,
        elapsed=0.5, threads=2,
        shards={"s1": {"hit": 1, "miss": 1, "stale": 1, "shed": 0,
                       "error": 1, "requests": 4},
                "s0": {"hit": 2, "miss": 1, "stale": 0, "shed": 1,
                       "error": 0, "requests": 4}},
        breaker_transitions=[(1.0, "s1", "closed", "open"),
                             (3.5, "s1", "open", "half-open")],
        interrupted=interrupted)


SINGLE_NODE_TEXT = """\
requests      : 10 over 2 thread(s) [interrupted]
outcomes      : hit=4  miss=3  stale=1  shed=1  error=1
coalesced     : 2
backend       : 5 fetch(es), 2 failed
availability  : 80.00%
latency       : p50=1.000ms p90=2.500ms p99=4.000ms
elapsed       : 0.500s (20 req/s)
breaker       : closed->open@1.00s, open->half-open@3.50s"""

CLUSTER_TEXT = """\
requests      : 10 over 2 thread(s), 2 shard(s) [interrupted]
outcomes      : hit=3  miss=2  replica_hit=2  stale=1  shed=1  error=1
hot keys      : 4 replication(s), 1 front-cache hit(s), 3 replica probe(s)
availability  : 80.00%
eff hit ratio : 60.00%
latency       : p50=1.000ms p90=2.500ms p99=4.000ms
elapsed       : 0.500s (20 req/s)
  shard s0    : hit=2  miss=1  stale=0  shed=1  error=0
  shard s1    : hit=1  miss=1  stale=1  shed=0  error=1
breakers      : s1:closed->open@1.00s, s1:open->half-open@3.50s"""


def run_seeded(layer):
    """A seeded tick-paced run through one node (backend outage) or a
    4-shard cluster (shard kill, with checkpoints around it)."""
    from repro.cluster import ClusterConfig, build_cluster

    keys = [key % 30 for key in range(600)]
    if layer == "single":
        plan = BackendFaultPlan().outage(2.0, 4.0)
        service = virtual_service(plan, ServiceConfig(
            ttl=1.0, stale_ttl=10.0), capacity=20)
        return run_load(service, keys, threads=1, tick=0.01)
    cluster = build_cluster(
        lambda: LRU(10), shards=4,
        config=ClusterConfig(replicas=0), clock=VirtualClock())
    cluster.kill("s1", 2.0, 4.0)
    return run_load(cluster, keys, threads=1, tick=0.01,
                    checkpoints=[2.0, 4.0])


@pytest.mark.parametrize("layer", ["single", "cluster"])
class TestLoadReportBothLayers:
    def test_render_matches_the_layer_format(self, layer):
        report, text = ((single_node_report(True), SINGLE_NODE_TEXT)
                        if layer == "single"
                        else (cluster_report(True), CLUSTER_TEXT))
        assert report.render() == text

    def test_availability_counts_every_served_outcome_present(self, layer):
        report = run_seeded(layer)
        report.check_accounting()
        served = sum(count for name, count in report.outcomes.items()
                     if name in ("hit", "miss", "replica_hit", "stale"))
        assert report.requests == 600
        assert report.availability == served / 600
        assert report.availability < 1.0          # the fault was felt

    def test_effective_hit_ratio_counts_cache_copies(self, layer):
        report = run_seeded(layer)
        from_cache = (report.outcomes["hit"] + report.outcomes["stale"]
                      + report.outcomes.get("replica_hit", 0))
        assert report.effective_hit_ratio == from_cache / report.requests

    def test_phases_partition_the_run(self, layer):
        report = run_seeded(layer)
        phases = report.phases()
        assert len(phases) == 1 + len(report.checkpoints)
        for name in (*report.outcomes, "requests"):
            assert sum(phase[name] for phase in phases) == (
                report.requests if name == "requests"
                else report.outcomes[name])

    def test_report_carries_the_layers_breakdown(self, layer):
        report = run_seeded(layer)
        if layer == "single":
            assert report.shards is None
            assert set(report.events) == {"coalesced", "fetch_attempts",
                                          "fetch_failures", "negative_hits"}
        else:
            assert sorted(report.shards) == ["s0", "s1", "s2", "s3"]
            assert set(report.events) == {"front_hits", "replications",
                                          "replica_probes"}

    def test_accounting_error_raises(self, layer):
        report = single_node_report() if layer == "single" \
            else cluster_report()
        report.check_accounting()
        report.requests += 1
        with pytest.raises(AssertionError, match="accounting"):
            report.check_accounting()

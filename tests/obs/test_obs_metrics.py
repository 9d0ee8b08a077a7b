"""MetricsRegistry: identity, thread-safety surface, snapshots, merge."""

import hashlib
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    exponential_buckets,
    merge_snapshots,
)
from repro.obs.metrics import LATENCY_RESERVOIR_SIZE, Reservoir


class TestRegistryIdentity:
    def test_same_name_labels_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", outcome="hit")
        b = reg.counter("requests_total", outcome="hit")
        assert a is b

    def test_different_labels_different_series(self):
        reg = MetricsRegistry()
        hit = reg.counter("requests_total", outcome="hit")
        miss = reg.counter("requests_total", outcome="miss")
        assert hit is not miss
        hit.inc(3)
        miss.inc()
        assert hit.value == 3
        assert miss.value == 1

    def test_one_type_per_name(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total", policy="LRU")

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")

    def test_counter_negative_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total").inc(-1)


class TestHistogram:
    def test_observe_and_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", (1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert [c for _, c in h.cumulative()] == [1, 2, 3, 4]

    def test_quantile_clamps_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "", (1.0, 2.0))
        h.observe(50.0)
        # The overflow bucket has no finite bound; the estimate clamps.
        assert h.quantile(0.99) == 2.0

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    @pytest.mark.parametrize("value, bucket", [
        (1.0, 0), (2.0, 1), (4.0, 2),          # on a bound: that bucket
        (1.5, 1), (4.000001, 3),               # between / above the last
        (float("inf"), 3),
        (0.0, 0), (-3.0, 0), (float("-inf"), 0),
        (float("nan"), 3),                     # NaN lands in +Inf
    ])
    def test_bucket_choice_at_the_edges(self, value, bucket):
        h = MetricsRegistry().histogram("lat", "", (1.0, 2.0, 4.0))
        h.observe(value)
        cumulative = [count for _, count in h.cumulative()]
        assert cumulative == [0] * bucket + [1] * (4 - bucket)


class TestReservoir:
    """Seeded samples are pinned: load-report percentiles never move."""

    def test_small_reservoir_golden_contents(self):
        sample = Reservoir(16, seed=7)
        for value in range(10_000):
            sample.add(value)
        assert sample.count == 10_000
        assert sample.values() == [6209, 8133, 4870, 3308, 32, 1515, 8425,
                                   5287, 1788, 8889, 9949, 3568, 1288, 1661,
                                   7043, 8610]

    def test_latency_reservoir_golden_contents(self):
        sample = Reservoir(LATENCY_RESERVOIR_SIZE, seed=0)
        for value in range(10_000):
            sample.add(value)
        values = sample.values()
        assert len(values) == LATENCY_RESERVOIR_SIZE
        assert sum(values) == 20_505_979
        assert values[:6] == [4292, 7729, 4735, 6345, 6136, 7951]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "7134fa2ae0e80ba0057fa3ea7e095302"
            "276f12e67074f22f931a4b674627856b")


class TestSnapshot:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help", policy="LRU").inc(7)
        reg.gauge("g").set(2.5)
        reg.histogram("h", "", (1.0, 10.0)).observe(3.0)
        return reg

    def test_snapshot_rows_cover_every_metric(self):
        rows = self._populated().snapshot()
        assert {row["type"] for row in rows} == {
            "counter", "gauge", "histogram"}
        counter = next(r for r in rows if r["type"] == "counter")
        assert counter["name"] == "c_total"
        assert counter["labels"] == {"policy": "LRU"}
        assert counter["value"] == 7

    def test_histogram_row_buckets_cumulative(self):
        rows = self._populated().snapshot()
        hist = next(r for r in rows if r["type"] == "histogram")
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(3.0)
        # [le, cumulative-count] pairs over the finite bounds; the +Inf
        # bucket is implied by "count" (Prometheus exposition adds it).
        assert [le for le, _ in hist["buckets"]] == [1.0, 10.0]
        assert [c for _, c in hist["buckets"]] == [0, 1]

    def test_counter_values_flat_view(self):
        vals = self._populated().counter_values()
        assert vals == {"c_total{policy=LRU}": 7}

    def test_merge_snapshots_sums_counters_and_buckets(self):
        a, b = self._populated(), self._populated()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        counter = next(r for r in merged if r["type"] == "counter")
        assert counter["value"] == 14
        hist = next(r for r in merged if r["type"] == "histogram")
        assert hist["count"] == 2
        assert [c for _, c in hist["buckets"]] == [0, 2]


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()
        counter = reg.counter("n_total")
        hist = reg.histogram("h", "", (10.0,))

        def worker():
            for _ in range(2000):
                counter.inc()
                hist.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 16000
        assert hist.count == 16000

"""Unit tests for QD-LP-FIFO, the paper's headline algorithm."""

from repro.core.clock import KBitClock
from repro.core.qdlpfifo import QDLPFIFO
from repro.policies.fifo import FIFO
from repro.policies.lru import LRU
from tests.conftest import drive


class TestQDLPFIFO:
    def test_structure(self):
        cache = QDLPFIFO(100)
        assert cache.name == "QD-LP-FIFO"
        assert isinstance(cache.main, KBitClock)
        assert cache.main.bits == 2
        assert cache.probation_capacity == 10
        assert cache.main_capacity == 90
        assert cache.ghost.capacity == 90

    def test_clock_bits_configurable(self):
        cache = QDLPFIFO(100, clock_bits=1)
        assert cache.main.bits == 1

    def test_capacity_invariant(self, zipf_keys):
        cache = QDLPFIFO(40)
        for key in zipf_keys:
            cache.request(key)
            assert len(cache) <= 40

    def test_stats_consistent(self, zipf_keys):
        cache = QDLPFIFO(40)
        hits = sum(drive(cache, zipf_keys))
        assert cache.stats.hits == hits
        assert cache.stats.misses == len(zipf_keys) - hits

    def test_beats_fifo_and_lru_on_ohw_workload(self, rng):
        """On a one-hit-wonder-heavy workload, QD-LP-FIFO must clearly
        beat both FIFO and LRU -- that is the paper's whole point."""
        from repro.traces.synthetic import one_hit_wonder_trace
        keys = one_hit_wonder_trace(3000, 50000, 1.0, 0.3, rng).tolist()
        capacity = 300
        results = {}
        for policy in (FIFO(capacity), LRU(capacity), QDLPFIFO(capacity)):
            for key in keys:
                policy.request(key)
            results[policy.name] = policy.stats.miss_ratio
        assert results["QD-LP-FIFO"] < results["LRU"]
        assert results["QD-LP-FIFO"] < results["FIFO"]

    def test_deterministic(self, zipf_keys):
        a = QDLPFIFO(50)
        b = QDLPFIFO(50)
        assert drive(a, zipf_keys) == drive(b, zipf_keys)

    def test_repeated_working_set_fully_cached(self):
        """A working set smaller than the cache converges to all-hits."""
        cache = QDLPFIFO(100)
        keys = list(range(30)) * 20
        outcomes = drive(cache, keys)
        assert all(outcomes[-30:])

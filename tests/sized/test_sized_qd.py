"""Unit tests for size-aware Quick Demotion."""

import pytest

from repro.core.ghost import GhostQueue
from repro.core.qd import QDCache
from repro.core.qdlpfifo import QDLPFIFO
from repro.policies.lru import LRU
from repro.policies.registry import make_sized
from repro.sized.simulator import simulate_sized
from repro.sized.workloads import attach_sizes, unique_bytes


class TestSizedGhost:
    def test_byte_bounded(self):
        ghost = GhostQueue(100)
        ghost.add("a", 60)
        ghost.add("b", 60)   # over budget: a falls off
        assert "a" not in ghost
        assert "b" in ghost
        assert ghost.used == 60

    def test_keeps_at_least_one_entry(self):
        ghost = GhostQueue(10)
        ghost.add("big", 50)   # oversized entries still remembered once
        assert "big" in ghost

    def test_remove(self):
        ghost = GhostQueue(100)
        ghost.add("a", 10)
        assert ghost.remove("a") is True
        assert ghost.remove("a") is False
        assert ghost.used == 0

    def test_re_add_refreshes(self):
        ghost = GhostQueue(100)
        ghost.add("a", 40)
        ghost.add("b", 40)
        ghost.add("a", 40)
        ghost.add("c", 40)   # b is now oldest -> dropped
        assert "a" in ghost and "c" in ghost and "b" not in ghost

    def test_zero_capacity(self):
        ghost = GhostQueue(0)
        ghost.add("a", 1)
        assert "a" not in ghost

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            GhostQueue(-1)


class TestSizedQDCache:
    def make(self, capacity=1000, **kwargs):
        return QDCache(capacity, LRU, **kwargs)

    def test_byte_partition(self):
        cache = self.make(1000)
        assert cache.probation_capacity == 100
        assert cache.main_capacity == 900

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(1)
        with pytest.raises(ValueError):
            self.make(1000, probation_fraction=0.0)

    def test_miss_enters_probation(self):
        cache = self.make(1000)
        cache.request("a", 50)
        assert cache.in_probation("a")

    def test_oversized_for_probation_goes_to_main(self):
        cache = self.make(1000)   # probation budget 100
        cache.request("big", 500)
        assert cache.in_main("big")

    def test_untouched_demotion_ghosts(self):
        cache = self.make(1000)   # probation 100
        cache.request("a", 60)
        cache.request("b", 60)    # a demoted: never hit -> ghost
        assert "a" not in cache
        assert "a" in cache.ghost

    def test_visited_demotion_graduates(self):
        cache = self.make(1000)
        cache.request("a", 60)
        cache.request("a", 60)    # mark visited
        cache.request("b", 60)    # a demoted -> main
        assert cache.in_main("a")

    def test_ghost_hit_straight_to_main(self):
        cache = self.make(1000)
        cache.request("a", 60)
        cache.request("b", 60)    # a -> ghost
        cache.request("a", 60)    # ghost hit: main admission
        assert cache.in_main("a")
        assert "a" not in cache.ghost

    def test_budget_never_exceeded(self, rng):
        cache = self.make(5000)
        for _ in range(4000):
            key = int(rng.integers(0, 400))
            size = int(rng.integers(1, 300))
            cache.request(key, size)
            assert cache.used <= 5000

    def test_stats_consistent(self, rng):
        cache = self.make(2000)
        hits = 0
        for _ in range(2000):
            hits += cache.request(int(rng.integers(0, 100)), 25)
        assert cache.stats.hits == hits


class TestSizedQDLPFIFO:
    def test_name_and_structure(self):
        cache = make_sized("Sized-QD-LP-FIFO", 1000)
        assert cache.name == "Sized-QD-LP-FIFO"
        assert cache.main.name == "2-bit-CLOCK"

    def test_beats_sized_lru_on_ohw_bytes(self, rng):
        """The §5 future-work claim, demonstrated: size-aware QD+LP
        yields a lower byte miss ratio than sized LRU on a one-hit
        -wonder-heavy workload."""
        from repro.traces.synthetic import one_hit_wonder_trace
        keys = one_hit_wonder_trace(3000, 50000, 1.0, 0.3, rng)
        sized = attach_sizes(keys, "lognormal", seed=2)
        capacity = unique_bytes(sized) // 10
        qd = simulate_sized(QDLPFIFO(capacity), sized)
        lru = simulate_sized(LRU(capacity), sized)
        assert qd.byte_miss_ratio < lru.byte_miss_ratio
        assert qd.miss_ratio < lru.miss_ratio

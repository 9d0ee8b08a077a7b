"""Unit tests for the size-aware baseline policies."""

from functools import partial

import pytest

from repro.core.clock import FIFOReinsertion, KBitClock
from repro.policies.gdsf import GDSF
from repro.policies.lru import LRU
from repro.policies.registry import make_sized
from repro.sized.base import SizedStats

# Each case keeps the id it was first recorded under, when the sized
# policies were separate classes.
ALL_FACTORIES = [
    pytest.param(partial(make_sized, name), id=case_id)
    for name, case_id in (("Sized-FIFO", "SizedFIFO"),
                          ("Sized-LRU", "SizedLRU"),
                          ("Sized-2-bit-CLOCK", "<lambda>"),
                          ("GDSF", "GDSF"))]


class TestSizedStats:
    def test_byte_accounting(self):
        stats = SizedStats()
        stats.record(True, 100)
        stats.record(False, 300)
        assert stats.miss_ratio == pytest.approx(0.5)
        assert stats.byte_miss_ratio == pytest.approx(0.75)

    def test_empty(self):
        stats = SizedStats()
        assert stats.miss_ratio == 0.0
        assert stats.byte_miss_ratio == 0.0

    def test_reset(self):
        stats = SizedStats()
        stats.record(True, 10)
        stats.reset()
        assert stats.requests == 0
        assert stats.hit_bytes == 0


class TestSizedCapacityValidation:
    """capacity_bytes goes through the shared validate_capacity guard."""

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_rejects_zero_capacity(self, factory):
        with pytest.raises(ValueError, match="capacity_bytes"):
            factory(0)

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_rejects_fractional_capacity(self, factory):
        # Used to silently truncate: capacity_bytes=2.7 meant 2 bytes.
        with pytest.raises(ValueError, match="whole number"):
            factory(2.7)

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_rejects_boolean_capacity(self, factory):
        with pytest.raises(TypeError, match="integer"):
            factory(True)


class TestCommonBehaviour:
    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_byte_budget_never_exceeded(self, factory, rng):
        cache = factory(10_000)
        for _ in range(3000):
            key = int(rng.integers(0, 300))
            size = int(rng.integers(1, 900))
            cache.request(key, size)
            assert cache.used <= 10_000

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_used_bytes_matches_contents(self, factory, rng):
        cache = factory(5_000)
        sizes = {}
        for _ in range(2000):
            key = int(rng.integers(0, 100))
            size = int(rng.integers(1, 400))
            cache.request(key, size)
            sizes[key] = size
        resident = sum(sizes[k] for k in sizes if k in cache)
        assert resident == cache.used

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_oversized_object_bypasses(self, factory):
        cache = factory(100)
        assert cache.request("huge", 101) is False
        assert "huge" not in cache
        assert cache.used == 0

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_hit_miss_semantics(self, factory):
        cache = factory(1000)
        assert cache.request("a", 10) is False
        assert cache.request("a", 10) is True
        assert len(cache) == 1

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_resize_on_rerequest(self, factory):
        cache = factory(1000)
        cache.request("a", 100)
        cache.request("a", 700)
        assert cache.used == 700

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_invalid_size_rejected(self, factory):
        cache = factory(100)
        with pytest.raises(ValueError):
            cache.request("a", 0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRU(0)


class TestSizedLRU:
    def test_evicts_least_recent_first(self):
        cache = LRU(100)
        cache.request("a", 40)
        cache.request("b", 40)
        cache.request("a", 40)   # refresh a
        cache.request("c", 40)   # must evict b, not a
        assert "a" in cache and "c" in cache
        assert "b" not in cache


class TestSizedClock:
    def test_visited_object_survives(self):
        cache = FIFOReinsertion(100)
        cache.request("a", 40)
        cache.request("a", 40)   # freq 1
        cache.request("b", 40)
        cache.request("c", 40)   # a reinserted, b evicted
        assert "a" in cache
        assert "b" not in cache

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            KBitClock(100, bits=0)


class TestGDSF:
    def test_upward_resize_of_minimum_priority_object_terminates(self):
        """Regression: resizing the minimum-priority object over budget
        used to livelock (_shrink popped it, pushed it straight back,
        and popped it again forever).  It must evict the *other*
        entries and keep the resized one."""
        cache = GDSF(100)
        cache.request("big", 90)    # priority 1/90 -- the minimum
        cache.request("small", 1)   # priority 1/1
        assert cache.request("big", 100) is True  # resize over budget
        assert "big" in cache
        assert "small" not in cache
        assert cache.used == 100

    def test_upward_resize_beyond_capacity_drops_resized_object(self):
        cache = GDSF(100)
        cache.request("big", 90)
        cache.request("small", 1)
        assert cache.request("big", 150) is True  # can never fit
        assert "big" not in cache
        assert cache.used <= 100

    def test_small_hot_object_beats_large_cold(self):
        cache = GDSF(1000)
        for _ in range(5):
            cache.request("small-hot", 100)
        cache.request("large-cold", 900)  # must evict something
        assert "small-hot" in cache

    def test_inflation_monotone(self, rng):
        cache = GDSF(2_000)
        last = 0.0
        for _ in range(2000):
            cache.request(int(rng.integers(0, 200)),
                          int(rng.integers(1, 300)))
            assert cache._inflation >= last
            last = cache._inflation

    def test_prefers_small_objects_object_mr(self, rng):
        """GDSF's signature: better *object* miss ratio than sized LRU
        on a workload with uncorrelated sizes."""
        from repro.traces.synthetic import zipf_trace
        from repro.sized.workloads import attach_sizes
        from repro.sized.simulator import simulate_sized
        keys = zipf_trace(2000, 40000, 0.9, rng)
        sized = attach_sizes(keys, "lognormal", seed=3)
        from repro.sized.workloads import unique_bytes
        cap = unique_bytes(sized) // 10
        gdsf = simulate_sized(GDSF(cap), sized)
        lru = simulate_sized(LRU(cap), sized)
        assert gdsf.miss_ratio < lru.miss_ratio

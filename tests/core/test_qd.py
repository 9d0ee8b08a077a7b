"""Unit tests for the Quick Demotion wrapper (paper Fig. 4)."""

import pytest

from repro.core.qd import QDCache, wrap_with_qd
from repro.policies.lru import LRU
from repro.policies.arc import ARC
from tests.conftest import drive


def make_qd(capacity=20, **kwargs):
    return QDCache(capacity, LRU, **kwargs)


class TestConstruction:
    def test_space_partition(self):
        cache = make_qd(100)
        assert cache.probation_capacity == 10
        assert cache.main_capacity == 90
        assert cache.ghost.capacity == 90

    def test_probation_fraction_respected(self):
        cache = make_qd(100, probation_fraction=0.2)
        assert cache.probation_capacity == 20
        assert cache.main_capacity == 80

    def test_ghost_factor(self):
        cache = make_qd(100, ghost_factor=2.0)
        assert cache.ghost.capacity == 180

    def test_tiny_capacity_keeps_one_slot_each(self):
        cache = make_qd(2)
        assert cache.probation_capacity == 1
        assert cache.main_capacity == 1

    def test_capacity_one_rejected(self):
        with pytest.raises(ValueError):
            make_qd(1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_qd(20, probation_fraction=0.0)
        with pytest.raises(ValueError):
            make_qd(20, probation_fraction=1.0)

    def test_bad_ghost_factor_rejected(self):
        with pytest.raises(ValueError):
            make_qd(20, ghost_factor=-1.0)

    def test_name_reflects_main_policy(self):
        assert make_qd(20).name == "QD-LRU"
        assert QDCache(20, ARC).name == "QD-ARC"


class TestRequestFlow:
    def test_miss_inserts_into_probation(self):
        cache = make_qd(20)
        assert cache.request("a") is False
        assert cache.in_probation("a")
        assert not cache.in_main("a")

    def test_probation_hit_marks_but_does_not_move(self):
        cache = make_qd(20)
        cache.request("a")
        assert cache.request("a") is True
        assert cache.in_probation("a")

    def test_untouched_probation_eviction_goes_to_ghost(self):
        cache = make_qd(20)  # probation holds 2
        cache.request("a")
        cache.request("b")
        cache.request("c")   # probation full: a evicted (never hit)
        assert "a" not in cache
        assert "a" in cache.ghost

    def test_accessed_object_graduates_to_main(self):
        cache = make_qd(20)  # probation holds 2
        cache.request("a")
        cache.request("a")   # mark accessed
        cache.request("b")
        cache.request("c")   # a demoted from probation -> main
        assert cache.in_main("a")
        assert "a" not in cache.ghost
        assert "a" in cache

    def test_ghost_hit_admits_directly_into_main(self):
        cache = make_qd(20)
        cache.request("a")
        cache.request("b")
        cache.request("c")   # a -> ghost
        assert "a" in cache.ghost
        assert cache.request("a") is False  # still a miss...
        assert cache.in_main("a")           # ...but admitted to main
        assert "a" not in cache.ghost

    def test_main_hit_delegates(self):
        cache = make_qd(20)
        cache.request("a")
        cache.request("b")
        cache.request("c")
        cache.request("a")   # ghost hit -> main
        assert cache.request("a") is True
        assert cache.in_main("a")

    def test_contains_covers_both_segments(self):
        cache = make_qd(20)
        cache.request("a")
        cache.request("a")
        cache.request("b")
        cache.request("c")
        assert "a" in cache and "c" in cache
        assert len(cache) == 3


class TestInvariants:
    def test_capacity_never_exceeded(self, zipf_keys):
        cache = make_qd(30)
        for key in zipf_keys:
            cache.request(key)
            assert len(cache) <= 30

    def test_ghost_never_holds_cached_keys(self, zipf_keys):
        cache = make_qd(30)
        for key in zipf_keys[:1000]:
            cache.request(key)
            assert key not in cache.ghost or key not in cache

    def test_segments_disjoint(self, zipf_keys):
        cache = make_qd(30)
        for key in zipf_keys[:1000]:
            cache.request(key)
            assert not (cache.in_probation(key) and cache.in_main(key))

    def test_stats_count_wrapper_level_only(self, zipf_keys):
        cache = make_qd(30)
        hits = sum(drive(cache, zipf_keys))
        assert cache.stats.hits == hits
        assert cache.stats.requests == len(zipf_keys)

    def test_admit_evict_event_balance(self, zipf_keys):
        """Every key is either resident or has equal admits/evicts."""
        from tests.core.test_base import RecordingListener
        listener = RecordingListener()
        cache = make_qd(30)
        cache.add_listener(listener)
        for key in zipf_keys:
            cache.request(key)
        from collections import Counter
        admits = Counter(listener.admits)
        evicts = Counter(listener.evicts)
        for key, count in admits.items():
            expected = count - 1 if key in cache else count
            assert evicts.get(key, 0) == expected, key

    def test_probation_to_main_move_fires_no_admit(self):
        from tests.core.test_base import RecordingListener
        listener = RecordingListener()
        cache = make_qd(20)
        cache.add_listener(listener)
        cache.request("a")
        cache.request("a")
        cache.request("b")
        cache.request("c")   # a graduates probation -> main
        assert listener.admits.count("a") == 1
        assert "a" not in listener.evicts


class TestWrapFactory:
    def test_wrap_with_qd(self):
        factory = wrap_with_qd(LRU, probation_fraction=0.2)
        cache = factory(50)
        assert isinstance(cache, QDCache)
        assert cache.probation_capacity == 10
        assert cache.name == "QD-LRU"

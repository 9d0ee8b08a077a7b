"""Unit tests for S3-FIFO."""

import pytest

from repro.core.s3fifo import S3FIFO
from repro.policies.fifo import FIFO
from tests.conftest import drive


class TestS3FIFO:
    def test_space_partition(self):
        cache = S3FIFO(100)
        assert cache.small_capacity == 10
        assert cache.main_capacity == 90
        assert cache.ghost.capacity == 90

    def test_capacity_one_rejected(self):
        with pytest.raises(ValueError):
            S3FIFO(1)

    def test_bad_small_fraction_rejected(self):
        with pytest.raises(ValueError):
            S3FIFO(10, small_fraction=1.5)

    def test_miss_enters_small_queue(self):
        cache = S3FIFO(100)
        cache.request("a")
        assert cache.in_small("a")
        assert not cache.in_main("a")

    def test_single_access_objects_evicted_to_ghost(self):
        cache = S3FIFO(20)  # small holds 2
        for key in ["a", "b", "c"]:
            cache.request(key)
        assert "a" not in cache
        assert "a" in cache.ghost

    def test_one_hit_is_not_enough_for_main(self):
        """S3-FIFO's threshold is freq > 1: an object touched once
        after insertion still goes to the ghost, unlike the QD wrapper."""
        cache = S3FIFO(20)  # small holds 2
        cache.request("a")
        cache.request("a")   # freq 1
        cache.request("b")
        cache.request("c")   # a evicted from small
        assert not cache.in_main("a")
        assert "a" in cache.ghost

    def test_two_hits_graduate_to_main(self):
        cache = S3FIFO(20)
        cache.request("a")
        cache.request("a")
        cache.request("a")   # freq 2
        cache.request("b")
        cache.request("c")
        assert cache.in_main("a")

    def test_ghost_hit_admits_to_main(self):
        cache = S3FIFO(20)
        for key in ["a", "b", "c"]:
            cache.request(key)
        assert "a" in cache.ghost
        cache.request("a")
        assert cache.in_main("a")
        assert "a" not in cache.ghost

    def test_main_reinsertion_protects_hot_objects(self):
        cache = S3FIFO(10, small_fraction=0.2)  # small 2, main 8
        # Install "h" in main and keep it hot.
        cache.request("h")
        cache.request("h")
        cache.request("h")
        cache.request("x1")
        cache.request("x2")   # h graduates to main
        assert cache.in_main("h")
        for i in range(40):   # churn the cache, touching h regularly
            cache.request(f"y{i}")
            cache.request("h")
        assert "h" in cache  # lazy promotion reinserts it each pass

    def test_capacity_never_exceeded(self, zipf_keys):
        cache = S3FIFO(30)
        for key in zipf_keys:
            cache.request(key)
            assert len(cache) <= 30

    def test_beats_fifo_on_skewed_workload(self, zipf_keys):
        s3 = S3FIFO(50)
        fifo = FIFO(50)
        drive(s3, zipf_keys)
        drive(fifo, zipf_keys)
        assert s3.stats.miss_ratio < fifo.stats.miss_ratio

    def test_stats_consistency(self, zipf_keys):
        cache = S3FIFO(50)
        hits = sum(drive(cache, zipf_keys))
        assert cache.stats.hits == hits
        assert cache.stats.requests == len(zipf_keys)

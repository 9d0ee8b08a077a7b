"""Unit tests for the trace-driven simulator."""

import numpy as np
import pytest

from repro.policies.belady import Belady
from repro.policies.fifo import FIFO
from repro.policies.lru import LRU
from repro.sim.options import SimOptions
from repro.sim.simulator import SimResult, miss_ratio, simulate
from repro.traces.trace import from_keys


class TestSimResult:
    def test_ratios(self):
        result = SimResult(policy="x", requests=10, hits=4, misses=6)
        assert result.miss_ratio == pytest.approx(0.6)
        assert result.hit_ratio == pytest.approx(0.4)

    def test_zero_requests(self):
        result = SimResult(policy="x", requests=0, hits=0, misses=0)
        assert result.miss_ratio == 0.0
        assert result.hit_ratio == 0.0


class TestSimulate:
    def test_accepts_lists_arrays_and_traces(self):
        keys = [1, 2, 1, 3, 1]
        expected = simulate(LRU(2), keys)
        as_array = simulate(LRU(2), np.asarray(keys))
        as_trace = simulate(LRU(2), from_keys(keys))
        as_iter = simulate(LRU(2), iter(keys))
        assert expected == as_array == as_trace == as_iter

    def test_counts(self):
        result = simulate(LRU(2), [1, 2, 1, 3, 1])
        assert result.requests == 5
        assert result.hits == 2
        assert result.misses == 3
        assert result.policy == "LRU"

    def test_offline_policy_prepared_automatically(self):
        result = simulate(Belady(2), [1, 2, 3, 1, 2, 1])
        assert result.requests == 6
        assert result.misses >= 3  # at least compulsory misses

    def test_warmup_excluded_from_stats(self):
        keys = [1, 2, 3] + [1, 2, 3] * 10
        warm = simulate(LRU(3), keys, SimOptions(warmup=3))
        assert warm.misses == 0
        assert warm.requests == len(keys) - 3

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            simulate(LRU(2), [1, 2], SimOptions(warmup=-1))
        with pytest.raises(ValueError):
            simulate(LRU(2), [1, 2], SimOptions(warmup=5))

    def test_listeners_attached_and_detached(self):
        from tests.core.test_base import RecordingListener
        listener = RecordingListener()
        policy = FIFO(2)
        simulate(policy, [1, 2, 3], SimOptions(listeners=[listener]))
        assert listener.admits == [1, 2, 3]
        assert policy._listeners == []

    def test_miss_ratio_helper(self):
        assert miss_ratio(LRU(2), [1, 1, 1, 1]) == pytest.approx(0.25)

    def test_fifo_better_throughput_story_consistent(self, small_trace):
        """Simulating the same trace twice gives identical results."""
        first = simulate(FIFO(30), small_trace)
        second = simulate(FIFO(30), small_trace)
        assert first == second

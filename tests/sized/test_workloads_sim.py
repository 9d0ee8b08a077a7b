"""Unit tests for sized workloads and the sized simulator."""

import pytest

from repro.policies.lru import LRU
from repro.sized.simulator import SizedSimResult, simulate_sized
from repro.sized.workloads import (
    attach_sizes,
    lognormal_size,
    pareto_size,
    total_bytes,
    unique_bytes,
)


class TestSizeFunctions:
    def test_deterministic_per_key(self):
        assert lognormal_size(42, seed=0) == lognormal_size(42, seed=0)
        assert pareto_size(42, seed=0) == pareto_size(42, seed=0)

    def test_seed_changes_sizes(self):
        sizes_a = [lognormal_size(k, seed=0) for k in range(200)]
        sizes_b = [lognormal_size(k, seed=1) for k in range(200)]
        assert sizes_a != sizes_b

    def test_lognormal_median_roughly_respected(self):
        sizes = [lognormal_size(k, seed=0, median=4096) for k in range(5000)]
        median = sorted(sizes)[len(sizes) // 2]
        assert 2000 < median < 8000

    def test_pareto_heavy_tail(self):
        sizes = [pareto_size(k, seed=0, scale=1000, alpha=1.5)
                 for k in range(5000)]
        assert min(sizes) >= 1000 * 0.99
        assert max(sizes) > 20 * min(sizes)

    def test_sizes_bounded(self):
        for k in range(1000):
            assert 1 <= lognormal_size(k, max_size=10_000) <= 10_000
            assert 1 <= pareto_size(k, max_size=10_000) <= 10_000


class TestAttachSizes:
    def test_same_key_same_size(self):
        keys, sizes = attach_sizes([1, 2, 1, 3, 1])
        assert sizes[0] == sizes[2] == sizes[4]

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            attach_sizes([1], distribution="weibull")

    def test_accepts_trace_objects(self, small_trace):
        keys, sizes = attach_sizes(small_trace)
        assert len(keys) == len(sizes) == small_trace.num_requests

    def test_totals(self):
        keys, sizes = attach_sizes([1, 2, 1])
        assert total_bytes((keys, sizes)) == sum(sizes)
        assert unique_bytes((keys, sizes)) == sizes[0] + sizes[1]


class TestSimulateSized:
    def test_result_fields(self):
        cache = LRU(1000)
        result = simulate_sized(cache, ([1, 2, 1], [100, 100, 100]))
        assert result.requests == 3
        assert result.misses == 2
        assert result.miss_ratio == pytest.approx(2 / 3)
        assert result.byte_miss_ratio == pytest.approx(2 / 3)
        assert result.total_bytes == 300

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_sized(LRU(10), ([1, 2], [1]))

    def test_zero_requests(self):
        result = SizedSimResult("x", 0, 0, 0, 0)
        assert result.miss_ratio == 0.0
        assert result.byte_miss_ratio == 0.0


class TestSizedStudyExperiment:
    def test_runs_and_renders(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.experiments import sized_study
        from repro.experiments.common import CorpusConfig
        result = sized_study.run(
            CorpusConfig(scale=0.1, traces_per_family=1))
        assert result.num_traces == 4
        text = result.render()
        assert "A6" in text and "GDSF" in text
        for ratios in (result.object_miss_ratio, result.byte_miss_ratio):
            assert all(0 < v < 1 for v in ratios.values())

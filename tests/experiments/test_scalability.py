"""X3 -- the thread-scalability saturation run (deterministic, virtual clock).

Every number here is exact: the cells run the open-loop engine on a
VirtualClock, so FIFO's throughput is T to the last bit and LRU's
saturates at the lock bound its own promotion count predicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import scalability
from repro.experiments.scalability import COST, measure
from repro.policies.lru import LRU
from repro.traces.synthetic import zipf_trace

THREADS = (1, 2, 4, 8)


def small_run():
    return scalability.run(num_objects=500, thread_counts=THREADS,
                           requests_per_thread=150, warmup=4000)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    import os

    old = os.environ.get("REPRO_RESULTS_DIR")
    os.environ["REPRO_RESULTS_DIR"] = str(
        tmp_path_factory.mktemp("scalability-results"))
    try:
        yield small_run()
    finally:
        if old is None:
            os.environ.pop("REPRO_RESULTS_DIR", None)
        else:
            os.environ["REPRO_RESULTS_DIR"] = old


@pytest.fixture
def keys():
    rng = np.random.default_rng(5)
    return zipf_trace(500, 3000, 1.1, rng).tolist()


class TestMeasure:
    def test_rejects_bad_thread_count(self, keys):
        with pytest.raises(ValueError, match="thread"):
            measure("FIFO", 250, [], keys[:10], threads=0)

    def test_single_thread_serves_at_most_one_per_time_unit(self, keys):
        for policy in ("FIFO", "QD-LP-FIFO", "LRU"):
            point = measure(policy, 250, keys[:2000], keys[2000:], 1)
            assert point.threads == 1
            assert 0 < point.throughput <= 1.0 / COST.base_cost
            assert 0 <= point.lock_utilisation <= 1

    def test_lru_promotes_on_every_hit(self, keys):
        warm, measured = keys[:2000], keys[2000:]
        point = measure("LRU", 250, warm, measured, 4)
        # The engine's probe counts what the policy really did: replay
        # the same requests offline and count the hits.
        offline = LRU(250)
        for key in warm:
            offline.request(key)
        hits = sum(offline.request(key) for key in measured)
        assert point.promotions_per_request == hits / len(measured)


class TestRun:
    def test_one_curve_per_policy(self, result):
        assert list(result.curves) == scalability.POLICIES
        for points in result.curves.values():
            assert [p.threads for p in points] == list(THREADS)

    def test_fifo_scales_exactly_with_threads(self, result):
        for policy in ("FIFO", "SIEVE"):
            for point in result.curves[policy]:
                assert point.lock_utilisation == 0
                assert point.promotions_per_request == 0
                assert point.throughput == point.threads / COST.base_cost

    def test_lru_saturates_at_the_lock_bound(self, result):
        for policy in ("LRU", "ARC"):
            top = result.curves[policy][-1]
            bound = 1.0 / (top.promotions_per_request
                           * COST.promotion_cost)
            assert top.throughput == pytest.approx(bound, rel=0.01)
            assert top.throughput <= bound
            assert top.lock_utilisation > 0.99

    def test_lock_free_beats_locked_at_scale(self, result):
        top = THREADS[-1]
        assert result.speedup("FIFO", top) == top
        assert result.speedup("FIFO", top) > 3 * result.speedup("LRU",
                                                                  top)

    def test_two_runs_give_equal_tables(self, result, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        again = small_run()
        assert again.curves == result.curves
        assert again.render() == result.render()

    def test_runs_and_renders(self, result):
        text = result.render()
        assert text.startswith("X3")
        for token in ("T=1", "T=8", "speedup@8", "lock util@8",
                      "promotions/req@8", "QD-LP-FIFO"):
            assert token in text

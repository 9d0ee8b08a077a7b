"""BatchRunner + fast-path integration: one interned trace, many cells.

Covers the sharing contract (interning happens once per trace no matter
how many cells replay it), the fallback contract (``None`` for policies
without engines, reference results for everything), and the
``run_sweep``/``simulate``/``simulated_mrc`` wiring on top.
"""

import numpy as np
import pytest

from repro.analysis.mrc import simulated_mrc
from repro.policies.registry import make
from repro.sim.fast.batch import BatchRunner
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.sim.simulator import simulate
from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace, from_keys


@pytest.fixture()
def trace():
    rng = np.random.default_rng(5)
    return Trace(name="t0", keys=zipf_trace(400, 4000, 1.1, rng))


def test_outcomes_match_reference_simulate(trace):
    runner = BatchRunner()
    for name in ("FIFO", "LRU", "SIEVE", "S3-FIFO", "QD-LP-FIFO"):
        for capacity in (16, 100):
            outcome = runner.run(name, trace, capacity)
            assert outcome is not None
            reference = simulate(make(name, capacity), trace)
            assert (outcome.hits, outcome.misses) == (
                reference.hits, reference.misses)
            assert outcome.requests == trace.num_requests
            assert outcome.miss_ratio == reference.miss_ratio


def test_unsupported_policy_returns_none(trace):
    runner = BatchRunner()
    assert runner.run("LIRS", trace, 50) is None
    # Belady-style offline policies never get a fast engine either.
    assert runner.run_policy(make("LRU", 50), trace) is not None


def test_stale_policy_instance_returns_none(trace):
    runner = BatchRunner()
    policy = make("FIFO", 50)
    policy.request(1)
    assert runner.run_policy(policy, trace) is None


def test_trace_interned_exactly_once(trace):
    runner = BatchRunner()
    assert trace._interned is None
    runner.run("FIFO", trace, 20)
    first = trace._interned
    assert first is not None
    runner.run("LRU", trace, 60)
    BatchRunner().run("SIEVE", trace, 20)   # fresh runner, same cache
    assert trace._interned is first


def test_plain_list_interned_once_per_runner():
    keys = [1, 2, 3, 1, 2, 4] * 200
    runner = BatchRunner()
    runner.run("FIFO", keys, 3)
    first = runner._interned
    assert first is not None
    runner.run("LRU", keys, 3)
    assert runner._interned is first


def test_warmup_passthrough(trace):
    runner = BatchRunner()
    outcome = runner.run("LRU", trace, 64, warmup=500)
    reference = simulate(make("LRU", 64), trace, SimOptions(warmup=500))
    assert (outcome.hits, outcome.misses) == (
        reference.hits, reference.misses)
    assert outcome.requests == trace.num_requests - 500


# ----------------------------------------------------------------------
# Integration: the callers routed through the fast path
# ----------------------------------------------------------------------

def test_run_sweep_fast_matches_reference(trace):
    policies = ["FIFO", "LRU", "LIRS"]
    fractions = (0.01, 0.1)
    fast = run_sweep(policies, [trace], size_fractions=fractions)
    slow = run_sweep(policies, [trace], size_fractions=fractions,
                     options=SimOptions(fast=False))
    assert fast.records == slow.records
    assert fast.ok and slow.ok
    # FIFO and LRU at both sizes ride the fast path; LIRS cannot.
    assert fast.accelerated == 4
    assert slow.accelerated == 0
    assert fast.resumed == 0


def test_simulate_fast_flag_matches_reference(trace):
    for name in ("FIFO", "2-bit-CLOCK", "QD-LP-FIFO"):
        fast = simulate(make(name, 64), trace, SimOptions(fast=True))
        slow = simulate(make(name, 64), trace)
        assert (fast.hits, fast.misses) == (slow.hits, slow.misses)


def test_simulate_fast_falls_back_for_unsupported(trace):
    fast = simulate(make("LIRS", 64), trace, SimOptions(fast=True))
    slow = simulate(make("LIRS", 64), trace)
    assert (fast.hits, fast.misses) == (slow.hits, slow.misses)


def test_simulate_fast_leaves_iterators_to_reference_path():
    keys = [1, 2, 1, 3, 1, 2] * 50
    result = simulate(make("FIFO", 2), iter(keys), SimOptions(fast=True))
    assert result.requests == len(keys)
    reference = simulate(make("FIFO", 2), keys)
    assert (result.hits, result.misses) == (
        reference.hits, reference.misses)


def test_simulated_mrc_matches_reference():
    trace = from_keys([k % 37 for k in range(1500)], name="mrc")
    sizes = [2, 5, 11, 23]
    curve = simulated_mrc(lambda c: make("LRU", c), trace, sizes)
    for size, ratio in zip(curve.sizes, curve.miss_ratios):
        reference = simulate(make("LRU", size), trace)
        assert ratio == reference.miss_ratio

"""Differential tests: every fast engine vs its reference policy.

The fast engines promise *bit-identical* behaviour, so these tests
compare the full per-request hit/miss mask, the final cache contents,
and the promotion count against the reference implementations -- not
just aggregate miss ratios -- across workload shapes chosen to stress
the chunked-optimism machinery: skewed Zipf (hot keys under the hand),
scans (bursty cold misses), and loops (adversarial for FIFO-family
hands, every key evicted before its next access at small capacities).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.registry import REGISTRY
from repro.sim.fast.dispatch import (
    FAST_POLICY_NAMES,
    engine_for,
    has_fast_engine,
)
from repro.sim.fast.intern import intern_trace
from repro.sim.options import SimOptions
from repro.sim.simulator import simulate

POLICIES = sorted(FAST_POLICY_NAMES)
CAPS = (1, 2, 10, 137, 1000)

_rng = np.random.default_rng(42)
_N = 12_000
TRACES = {
    "zipf": (_rng.zipf(1.2, _N) % 2000).astype(np.int64),
    "scan": np.concatenate([np.arange(500), np.arange(500),
                            np.arange(1500), np.arange(1500),
                            np.arange(900)]).astype(np.int64),
    "loop": np.tile(np.arange(300, dtype=np.int64), 24),
}


def _reference_mask(policy, raw) -> np.ndarray:
    return np.fromiter((policy.request(int(k)) for k in raw),
                       dtype=bool, count=len(raw))


def _reference_promotions(policy) -> int:
    promotions = getattr(policy, "promotion_count", None)
    if promotions is None:
        promotions = policy.stats.promotions
    return int(promotions)


def assert_bit_identical(pname: str, raw: np.ndarray, cap: int) -> None:
    """Full differential check of one (policy, trace, capacity) cell."""
    spec = REGISTRY[pname]
    if cap < spec.min_capacity:
        return
    interned = intern_trace(raw)
    ref = spec.factory(cap)
    engine = engine_for(spec.factory(cap), interned.num_unique)
    assert engine is not None, f"no fast engine for {pname}"

    ref_mask = _reference_mask(ref, raw)
    fast_mask = engine.replay(interned.ids)
    if not np.array_equal(ref_mask, fast_mask):
        index = int(np.nonzero(ref_mask != fast_mask)[0][0])
        pytest.fail(f"{pname} cap={cap}: first divergence at request "
                    f"{index}: fast={bool(fast_mask[index])} "
                    f"ref={bool(ref_mask[index])}")

    ref_contents = {k for k in range(interned.num_unique)
                    if int(interned.uniques[k]) in ref}
    assert engine.contents() == ref_contents, \
        f"{pname} cap={cap}: final cache contents differ"
    assert engine.promotions == _reference_promotions(ref), \
        f"{pname} cap={cap}: promotion counts differ"
    assert engine.hits + engine.misses == engine.requests == len(raw)


@pytest.mark.parametrize("tname", sorted(TRACES))
@pytest.mark.parametrize("pname", POLICIES)
def test_bit_identical_across_capacities(pname, tname):
    for cap in CAPS:
        assert_bit_identical(pname, TRACES[tname], cap)


def test_lru_chunk_boundary_eager_restamp():
    """Regression: two residents straddle a chunk boundary with the
    *older-stamped* one re-accessed inside the next chunk.  A lazy
    skip of the boundary victim (instead of an eager re-stamp at its
    true recency) makes the walk evict the wrong key a few requests
    later; the divergence only shows at small capacities with this
    exact interleaving."""
    a, x, b, c = 10, 11, 12, 13
    pad = np.arange(100, 100 + 4094, dtype=np.int64)
    chunk1 = np.concatenate([pad, [a, x]]).astype(np.int64)
    trace = np.concatenate(
        [chunk1, [a, b, c, a, b, x, a, c]]).astype(np.int64)
    for pname in POLICIES:
        for cap in (2, 3, 4):
            assert_bit_identical(pname, trace, cap)


@pytest.mark.parametrize("trial", range(6))
def test_randomized_small_cap_stress(trial):
    """Small caches + many chunk crossings: every request is near the
    eviction frontier, so the conflict-repair paths fire constantly."""
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(4000, 8001))
    u = int(rng.integers(4, 300))
    style = trial % 3
    if style == 0:
        raw = rng.integers(0, u, n).astype(np.int64)
    elif style == 1:
        raw = (rng.zipf(1.3, n) % u).astype(np.int64)
    else:
        base = np.tile(np.arange(u, dtype=np.int64), n // u + 1)[:n]
        noise = rng.integers(0, u, n)
        raw = np.where(rng.random(n) < 0.3, noise, base).astype(np.int64)
    for pname in POLICIES:
        for cap in (1, 2, 5, 17, u // 2 + 1, u + 3):
            assert_bit_identical(pname, raw, cap)


@pytest.mark.parametrize("pname",
                         ["FIFO", "LRU", "2-bit-CLOCK", "S3-FIFO",
                          "ARC", "LHD", "QD-ARC", "QD-LHD"])
@pytest.mark.parametrize("warmup", [0, 1, 1000, _N])
def test_warmup_statistics_match_reference(pname, warmup):
    raw = TRACES["zipf"]
    reference = simulate(REGISTRY[pname].factory(137), raw.tolist(),
                         SimOptions(warmup=warmup))
    fast = simulate(REGISTRY[pname].factory(137), raw,
                    SimOptions(warmup=warmup, fast=True))
    assert (fast.hits, fast.misses) == (reference.hits, reference.misses)
    assert fast.requests == len(raw) - warmup


def test_fast_engines_are_single_use():
    interned = intern_trace(TRACES["loop"])
    engine = engine_for(REGISTRY["FIFO"].factory(10), interned.num_unique)
    engine.replay(interned.ids)
    with pytest.raises(RuntimeError, match="single-use"):
        engine.replay(interned.ids)


def test_dispatch_refuses_stale_policies():
    policy = REGISTRY["LRU"].factory(10)
    policy.request(1)
    assert engine_for(policy, 5) is None
    assert has_fast_engine("LRU")
    assert not has_fast_engine("LIRS")


@given(keys=st.lists(st.integers(min_value=0, max_value=30),
                     min_size=1, max_size=300),
       cap=st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_property_mask_and_counts(keys, cap):
    """hits + misses == requests, and the mask agrees with the
    reference, for arbitrary small traces."""
    raw = np.asarray(keys, dtype=np.int64)
    interned = intern_trace(raw)
    for pname in ("FIFO", "LRU", "SIEVE", "ARC", "LHD"):
        spec = REGISTRY[pname]
        if cap < spec.min_capacity:
            continue
        ref = spec.factory(cap)
        engine = engine_for(spec.factory(cap), interned.num_unique)
        mask = engine.replay(interned.ids)
        assert np.array_equal(mask, _reference_mask(ref, raw))
        assert engine.hits + engine.misses == engine.requests == len(keys)
        assert int(mask.sum()) == engine.hits

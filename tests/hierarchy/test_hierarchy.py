"""CacheHierarchy: demotion cascade, conservation invariants, TTL, shim."""


import pytest

from repro.hierarchy import (
    CacheHierarchy,
    HierarchyConfig,
    TierConfig,
    dram_flash_config,
    simulate_hierarchy,
)
from repro.obs.metrics import MetricsRegistry
from repro.sized.workloads import attach_sizes, unique_bytes
from repro.traces.zipf import zipf_ranks


def small_hierarchy(dram=2048, flash=8192, **kwargs):
    return CacheHierarchy(dram_flash_config(dram, flash, **kwargs))


def zipf_sized(n_objects=300, n_requests=4000, alpha=0.8, seed=3):
    keys = zipf_ranks(n_objects, alpha, n_requests, seed=seed).tolist()
    return attach_sizes(keys, "lognormal", seed=1)


class TestDemotionCascade:
    def test_eviction_lands_in_flash(self):
        hierarchy = small_hierarchy(dram=300, flash=4096,
                                    dram_policy="fifo")
        hierarchy.request("a", 200)
        hierarchy.request("b", 200)   # evicts a from DRAM
        assert "b" in hierarchy.tier("dram")
        assert "a" not in hierarchy.tier("dram")
        assert "a" in hierarchy.tier("flash")
        assert hierarchy.request("a", 200) == "flash"

    def test_flash_eviction_leaves_hierarchy(self):
        hierarchy = small_hierarchy(dram=300, flash=300,
                                    dram_policy="fifo")
        for key in ("a", "b", "c"):
            hierarchy.request(key, 200)
        # every tier holds at most one 200-byte object
        assert "a" not in hierarchy
        hierarchy.check_conservation()

    def test_promote_on_hit_copies_to_dram(self):
        hierarchy = small_hierarchy(dram=300, flash=4096,
                                    dram_policy="fifo")
        hierarchy.request("a", 200)
        hierarchy.request("b", 200)
        hierarchy.request("a", 200)   # flash hit, promoted
        assert "a" in hierarchy.tier("dram")
        # inclusive: the flash copy stays behind
        assert "a" in hierarchy.tier("flash")

    def test_lazy_promotion_serves_in_place(self):
        hierarchy = CacheHierarchy(dram_flash_config(
            300, 4096, dram_policy="fifo", promote_on_hit=False))
        hierarchy.request("a", 200)
        hierarchy.request("b", 200)
        assert hierarchy.request("a", 200) == "flash"
        assert "a" not in hierarchy.tier("dram")

    def test_rejected_demotion_is_not_written(self):
        hierarchy = small_hierarchy(dram=300, flash=4096,
                                    dram_policy="fifo",
                                    flash_admission="ghost")
        hierarchy.request("a", 200)
        hierarchy.request("b", 200)   # a demoted, ghost-rejected
        flash = hierarchy.tier("flash")
        assert "a" not in flash
        assert flash.stats.demoted_in_rejected == 1
        assert flash.stats.write_bytes == 0
        hierarchy.request("c", 200)   # b demoted, rejected
        hierarchy.request("a", 200)   # miss; a into DRAM, c demoted+rejected
        hierarchy.request("d", 200)   # a demoted again: ghost remembers
        assert "a" in flash
        assert flash.stats.write_bytes == 200


class TestConservation:
    @pytest.mark.parametrize("dram_policy", [
        "sized-fifo", "sized-lru", "sized-2-bit-clock",
        "sized-qd-lp-fifo", "gdsf"])
    @pytest.mark.parametrize("admission", [
        "admit-all", "ghost", "frequency"])
    def test_invariants_hold_across_grid(self, dram_policy, admission):
        sized = zipf_sized()
        footprint = unique_bytes(sized)
        config = dram_flash_config(
            dram_bytes=max(4096, footprint // 20),
            flash_bytes=max(4096, footprint // 5),
            dram_policy=dram_policy, flash_admission=admission)
        result = simulate_hierarchy(config, sized)  # asserts internally
        for report in result.tiers:
            assert report.hits + report.misses == report.lookups
            assert 0 <= report.used_bytes <= report.capacity_bytes
        dram, flash = result.tiers
        assert dram.demoted_out == (flash.demoted_in_admitted
                                    + flash.demoted_in_refreshed
                                    + flash.demoted_in_rejected)
        assert result.overall_hits + result.backend_fetches == \
            result.requests

    def test_three_tier_conservation(self):
        sized = zipf_sized()
        footprint = unique_bytes(sized)
        config = HierarchyConfig(tiers=(
            TierConfig(name="dram", capacity_bytes=footprint // 50,
                       policy="lru"),
            TierConfig(name="flash", capacity_bytes=footprint // 10,
                       policy="fifo", kind="flash", admission="ghost",
                       read_cost=25.0, write_cost=250.0),
            TierConfig(name="disk", capacity_bytes=footprint // 2,
                       policy="fifo", kind="disk",
                       read_cost=200.0, write_cost=400.0),
        ), backend_read_cost=2500.0)
        result = simulate_hierarchy(config, sized)
        assert [r.name for r in result.tiers] == ["dram", "flash", "disk"]
        assert result.tiers[0].demoted_out > 0
        assert result.tiers[1].demoted_out > 0

    def test_write_amplification_accounting(self):
        sized = zipf_sized()
        config = dram_flash_config(
            dram_bytes=max(4096, unique_bytes(sized) // 20),
            flash_bytes=max(4096, unique_bytes(sized) // 5))
        result = simulate_hierarchy(config, sized)
        flash = result.tier_report("flash")
        assert flash.write_amplification >= 1.0
        assert result.flash_write_bytes == flash.write_bytes

    def test_oversized_object_passes_through(self):
        hierarchy = small_hierarchy(dram=300, flash=300)
        assert hierarchy.request("huge", 5000) == "miss"
        assert hierarchy.request("huge", 5000) == "miss"
        hierarchy.check_conservation()

    def test_metrics_carry_tier_labels(self):
        registry = MetricsRegistry()
        config = dram_flash_config(2048, 8192)
        sized = zipf_sized(n_requests=500)
        simulate_hierarchy(config, sized, registry=registry)
        counters = registry.counter_values()
        assert counters["hierarchy_lookups_total{tier=dram}"] == 500
        assert "hierarchy_lookups_total{tier=flash}" in counters
        assert "hierarchy_write_bytes_total{tier=flash}" in counters


class TestTTL:
    def test_expiry_while_resident_in_flash(self):
        # One object requested, demoted to flash, then re-requested
        # after its TTL: the stale flash copy must not serve the hit.
        config = HierarchyConfig(tiers=(
            TierConfig(name="dram", capacity_bytes=300, policy="fifo"),
            TierConfig(name="flash", capacity_bytes=4096, policy="fifo",
                       kind="flash"),
        ), ttl=4)
        keys = [1, 2, 3, 1, 1]   # reuse at distance 3 (fresh), then 4+
        sizes = [200] * len(keys)
        result = simulate_hierarchy(config, (keys, sizes))
        # only the *fresh* reuse of key 1 can hit
        assert result.overall_hits <= 1

    def test_ttl_lowers_hit_ratio(self):
        sized = zipf_sized()
        footprint = unique_bytes(sized)
        base = dict(dram_bytes=max(4096, footprint // 10),
                    flash_bytes=max(4096, footprint // 3))
        fresh = simulate_hierarchy(dram_flash_config(**base), sized)
        expiring = simulate_hierarchy(
            dram_flash_config(**base, ttl=100), sized)
        assert expiring.overall_hit_ratio < fresh.overall_hit_ratio
        assert expiring.ttl == 100

    def test_stale_bytes_linger_until_evicted(self):
        config = HierarchyConfig(tiers=(
            TierConfig(name="dram", capacity_bytes=300, policy="fifo"),
            TierConfig(name="flash", capacity_bytes=4096, policy="fifo",
                       kind="flash"),
        ), ttl=2)
        keys = [1, 2, 3]
        result = simulate_hierarchy(config, (keys, [200] * 3))
        # key 1 expired after the first epoch but its copy still holds
        # flash bytes (lazy expiry: versions only leave by eviction)
        flash = result.tier_report("flash")
        assert flash.used_bytes >= 200


class TestLegacyShim:
    """The removed single-tier keyword spelling fails loudly."""

    def test_mixing_config_and_legacy_rejected(self):
        config = dram_flash_config(2048, 8192)
        with pytest.raises(TypeError, match="capacity_bytes"):
            CacheHierarchy(config, capacity_bytes=4096)

    def test_unknown_kwarg_rejected_even_with_legacy(self):
        with pytest.raises(TypeError):
            simulate_hierarchy(None, ([], []), capacity_bytes=4096,
                               polcy="lru")

    def test_trace_length_mismatch(self):
        config = dram_flash_config(2048, 8192)
        with pytest.raises(ValueError):
            simulate_hierarchy(config, ([1, 2], [10]))

"""Per-layer metrics of a traced round.

Values are per request of the workload unless the unit says otherwise.
Counts come from the program's own counters where they exist
(``CacheStats.promotions``, ``ClusterMetrics``, ``ServiceMetrics``,
``TierStats``); evictions from a listener the traced run adds; times
from the ledger's spans.  A metric whose layer the workload does not
run reads 0.  ``layers.json`` records, for each metric, the module it
measures and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from typing import Dict

from workloads import SWEEP_POLICIES, SWEEP_SIZES, Round


def per_layer(rnd: Round, ledger, overhead: float,
              scale: float = 1.0) -> Dict[str, float]:
    """Every per-layer metric for one traced round.

    Times are multiplied by *scale*, the host-speed factor run.py
    applies to the end-to-end times.
    """
    requests = rnd.requests
    layer = rnd.layer

    def us(ns: float) -> float:
        return ns * scale / requests / 1e3

    def per_req(count: float) -> float:
        return count / requests

    metrics: Dict[str, float] = {
        "traces.generate_s": rnd.generate_s * scale,
        "trace.overhead_ratio": overhead,
        "bench.loop.self_us": us(ledger.self_ns("bench.round")),
    }
    fetches = layer.get("fetch_attempts", 0)
    traced_requests = layer.get("reqtrace_requests", 0)
    metrics.update({
        "cluster.get.self_us": us(ledger.self_ns("cluster.get")),
        "cluster.replica_puts_per_req": per_req(layer.get("replications", 0)),
        "cluster.replica_probes_per_req": per_req(
            layer.get("replica_probes", 0)),
        "service.get.hit.self_us": us(ledger.self_ns("service.get.hit")),
        "service.get.miss.self_us": us(ledger.self_ns("service.get.miss")),
        "service.put.us": us(ledger.total_ns("service.put")),
        "service.fetch_attempts_per_req": per_req(fetches),
        "service.fetch_ok_ratio": (
            (fetches - layer["fetch_failures"]) / fetches if fetches else 0.0),
        "policy.request.us": us(ledger.total_ns("policy.request")),
        "policy.calls_per_req": per_req(ledger.count("policy.request")),
        "policy.promotions_per_req": per_req(layer.get("promotions", 0)),
        "policy.evictions_per_req": per_req(layer.get("evictions", 0)),
        "backend.fetch.us": us(ledger.total_ns("backend.fetch")),
        "backend.fetches_per_req": per_req(ledger.count("backend.fetch")),
        "obs.metric_updates_per_req": per_req(
            ledger.count("obs.metric_update")),
        "obs.metric_update.us": us(ledger.total_ns("obs.metric_update")),
        "obs.reqtrace.start.us": us(ledger.total_ns("obs.reqtrace.start")),
        "obs.reqtrace.sampled_ratio": (
            layer["reqtrace_sampled"] / traced_requests
            if traced_requests else 0.0),
    })

    sweeps = ledger.count("sim.run_sweep")
    cell_requests = layer.get("cell_requests", 0) * len(SWEEP_SIZES) * sweeps
    metrics["sim.intern_s"] = (ledger.total_ns("sim.intern") * scale
                               / sweeps / 1e9 if sweeps else 0.0)
    metrics["sim.sweep.self_s"] = (ledger.self_ns("sim.run_sweep") * scale
                                   / sweeps / 1e9 if sweeps else 0.0)
    for policy in SWEEP_POLICIES:
        replay_ns = ledger.total_ns(f"sim.replay.{policy}") * scale
        metrics[f"sim.replay_us_per_req.{policy}"] = (
            replay_ns / cell_requests / 1e3 if cell_requests else 0.0)

    flash_in = layer.get("flash_demoted_in", 0)
    metrics.update({
        "hierarchy.request.self_us": us(ledger.self_ns("hierarchy.request")),
        "tier.dram.lookup_us": us(ledger.total_ns("tier.dram.lookup")),
        "tier.flash.lookup_us": us(ledger.total_ns("tier.flash.lookup")),
        "tier.insert.us": us(ledger.total_ns("tier.insert")),
        "tier.lookups_per_req": per_req(layer.get("lookups", 0)),
        "tier.flash.demote_in_per_req": per_req(flash_in),
        "tier.flash.admit_ratio": (layer["flash_admitted"] / flash_in
                                   if flash_in else 0.0),
        "flash_bytes_per_req": per_req(layer.get("flash_write_bytes", 0)),
    })
    return metrics


__all__ = ["per_layer"]

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` repeats rounds (fresh set-up, then one timed phase) until
``--seconds`` of timed work is done and prints the end-to-end metrics;
``--trace 1`` times one untraced and one traced round of the same seed
and prints the per-layer ledger.  Metric names and units come from
``BENCHMARK.json``.  The last line of output is one JSON object; the
exit code is 1 when any output check failed.

End-to-end times:

* ``throughput_rps`` -- requests completed per second of timed work
  (trace requests summed over cells for offline-replay).
* ``latency_p50_us`` / ``latency_p99_us`` -- where each request is timed
  (serve workloads: one ``CacheCluster.get``; tiered-replay: one request
  inside ``simulate_hierarchy``), the nearest-rank percentile over every
  request of the run, each scaled by the host speed around its 1000-request
  window.  offline-replay replays each trace inside numpy, so its only
  sample is one ``run_sweep`` call's time per request; a handful of calls
  supports no tail, so both names report the median call.
* ``setup_s`` -- median over rounds of the time to generate the inputs,
  build the system and fill its caches.
* ``peak_rss_mb`` -- the process's peak resident memory at the end of
  its first round.

A shared virtual machine's speed drifts by up to 2x as other tenants
come and go (seen on a 2-vCPU KVM guest), so every time above is scaled
by how long a fixed, program-independent interpreter kernel took,
sampled during each set-up and between slices of the timed work,
relative to a committed reference (``CALIBRATION_REF_NS``).  The raw
figures are printed on the ``raw`` line.

Every run also checks a second seed outside the timed phases: the
default seed against the counts committed in ``expected.json`` (or, when
``--seed`` is the default seed, the next seed against the invariants).
``--regen-expected`` recomputes ``expected.json``, using the reference
policies for offline-replay.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"
MIN_ROUNDS = 3
#: host_kernel() runs averaged into the host speed of one latency window
#: (about a second of serve-workload requests).
SMOOTH = 31


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}; run the "
                 f"benchmark from the root of a repository checkout")
    sys.path.insert(0, str(src))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def _check_seeds(workload, seed: int, rounds, expected: dict) -> list:
    """Counts checks plus one extra round on a second seed.

    Returns every round that was checked (the extra one included).
    """
    from checks import count_mismatches
    from workloads import DEFAULT_SEED, run_round

    holdout = seed if seed != DEFAULT_SEED else DEFAULT_SEED + 1
    extra_seed = DEFAULT_SEED if seed != DEFAULT_SEED else holdout
    checked = list(rounds) + [run_round(workload, extra_seed)]
    committed = expected["workloads"][workload.name]
    for rnd in checked:
        if rnd.seed == DEFAULT_SEED:
            for note in count_mismatches(rnd.counts, committed):
                rnd.fail(f"default seed {note}")
    target = next(r for r in checked if r.seed == holdout)
    workload.reference_check(holdout, target)
    return checked


def _finish(rounds, metrics: dict, spec_metrics: list) -> int:
    failed = sum(rnd.failed for rnd in rounds)
    attempted = sum(rnd.requests for rnd in rounds)
    for rnd in rounds:
        for note in rnd.notes:
            print(f"FAILED (seed {rnd.seed}): {note}")
    print(f"fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checked operations failed)")
    out = {entry["name"]: {"value": metrics[entry["name"]],
                           "unit": entry["unit"]} for entry in spec_metrics}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def _normalised_ns(rnd) -> np.ndarray:
    """Each request's latency scaled by host speed around its window.

    The host_kernel() run that follows window w (of WINDOW requests)
    samples the host's speed then; a trailing partial window with no run
    of its own takes the last one.  One run is a snapshot of a
    millisecond and reads up to a third fast or slow, which would scale
    a whole window's requests into or out of the tail, so each window
    takes the mean of the SMOOTH runs centred on it.
    """
    from workloads import CALIBRATION_REF_NS, WINDOW

    half = SMOOTH // 2
    padded = np.pad(rnd.calibration_ns.astype(np.float64), half, mode="edge")
    kernel_ns = np.convolve(padded, np.full(SMOOTH, 1 / SMOOTH), mode="valid")
    window = np.minimum(np.arange(rnd.latencies_ns.size) // WINDOW,
                        kernel_ns.size - 1)
    return rnd.latencies_ns * (CALIBRATION_REF_NS / kernel_ns[window])


def _round_kernel_ns(rnd) -> float:
    """Mean host_kernel() time over a round: set-up and timed phase.

    offline-replay's set-up lasts tens of milliseconds, too short for
    its own few kernel runs to follow the host's speed.
    """
    return float(np.concatenate([rnd.setup_calibration_ns,
                                 rnd.calibration_ns]).mean())


def run_end_to_end(workload, seed: int, seconds: float) -> int:
    from checks import MIN_BEYOND, highest_supported, nearest_rank, rounds_agree
    from workloads import CALIBRATION_REF_NS, run_round

    rounds = []
    timed = 0.0
    while len(rounds) < MIN_ROUNDS or timed < seconds:
        rnd = run_round(workload, seed)
        rounds.append(rnd)
        timed += rnd.wall_s
    for note in rounds_agree([rnd.counts for rnd in rounds]):
        rounds[-1].fail(f"rounds of one seed disagree: {note}")

    # Host-speed normalisation (see the module docstring): each timed
    # phase is scaled by its round's mean host_kernel() time, each set-up
    # by the kernel runs of its whole round, each latency sample by the
    # kernel runs around its window.
    def speed(rnd) -> float:
        return CALIBRATION_REF_NS / rnd.calibration_ns.mean()

    requests = sum(r.requests for r in rounds)
    if workload.per_request_latency:
        raw_us = np.concatenate([r.latencies_ns for r in rounds]) / 1e3
        norm_us = np.concatenate([_normalised_ns(r) for r in rounds]) / 1e3
        samples = (f"{raw_us.size} samples, one per request, nearest rank "
                   f"over all of them (highest percentile with >= "
                   f"{MIN_BEYOND} samples beyond: "
                   f"p{highest_supported(raw_us.size)})")

        def latency(percentile: str, normalise: bool) -> float:
            return nearest_rank(norm_us if normalise else raw_us, percentile)
    else:
        # Requests are replayed inside numpy, so the only latency sample
        # is one run_sweep call's time per request, too few for a tail.
        raw_us = [r.wall_s * 1e6 / r.requests for r in rounds]
        norm_us = [us * speed(r) for us, r in zip(raw_us, rounds)]
        samples = (f"{len(rounds)} samples, one per run_sweep call (wall "
                   f"time per request); p99 is not supported (highest "
                   f"percentile with >= {MIN_BEYOND} samples beyond: "
                   f"p{highest_supported(len(rounds))}), so both "
                   f"latency_p50_us and latency_p99_us report the median "
                   f"call")

        def latency(percentile: str, normalise: bool) -> float:
            return nearest_rank(norm_us if normalise else raw_us, "50")

    raw = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "throughput_rps": requests / timed,
        "latency_p50_us": latency("50", False),
        "latency_p99_us": latency("99", False),
    }
    metrics = {
        "setup_s": statistics.median(
            r.setup_s * CALIBRATION_REF_NS / _round_kernel_ns(r)
            for r in rounds),
        "throughput_rps": requests / sum(r.wall_s * speed(r)
                                         for r in rounds),
        "latency_p50_us": latency("50", True),
        "latency_p99_us": latency("99", True),
    }
    metrics.update({
        "miss_ratio": rounds[0].miss_ratio,
        # High-water mark through the first set-up and timed phase: the
        # process's own bookkeeping grows with the number of rounds.
        "peak_rss_mb": rounds[0].peak_rss_mb,
    })
    checked = _check_seeds(workload, seed, rounds, _expected())

    for index, rnd in enumerate(rounds, start=1):
        print(f"round {index}: setup {rnd.setup_s:.3f} s, peak RSS "
              f"{rnd.peak_rss_mb:.1f} MB, timed "
              f"{rnd.wall_s:.3f} s, {rnd.requests / rnd.wall_s:.1f} req/s, "
              f"timed phase scaled by {speed(rnd):.4f}")
    print(f"workload {workload.name} seed {seed}: {len(rounds)} rounds, "
          f"{requests} requests timed in {timed:.3f} s "
          f"(one client, closed loop)")
    print(f"latency: {samples}")
    print("raw " + " ".join(f"{name}={value:.6g}"
                            for name, value in raw.items()))
    spec = _spec()["end_to_end"]
    for entry in spec:
        print(f"{entry['name']} {metrics[entry['name']]:.6g} {entry['unit']}")
    return _finish(checked, metrics, spec)


def run_traced(workload, seed: int) -> int:
    from layers import per_layer
    from ledger import ROOT as ROOT_SPAN
    from ledger import Ledger, Recorder
    from workloads import CALIBRATION_REF_NS, run_round

    base = run_round(workload, seed)
    recorder = Recorder()
    traced = run_round(workload, seed, recorder)
    if traced.counts != base.counts:
        traced.fail("the traced round's outputs differ from the "
                    "untraced round's")
    ledger = Ledger(recorder)
    root_ns = ledger.total_ns(ROOT_SPAN)
    if abs(ledger.total_self_ns - root_ns) > 0.5:
        traced.fail(f"self times sum to {ledger.total_self_ns:.0f} ns, "
                    f"the traced wall time is {root_ns:.0f} ns")
    # Both rounds normalised to host speed, as the end-to-end times are.
    overhead = ((traced.wall_s / traced.calibration_ns.mean())
                / (base.wall_s / base.calibration_ns.mean()))
    scale = CALIBRATION_REF_NS / traced.calibration_ns.mean()
    metrics = per_layer(traced, ledger, overhead, scale)
    path = SPAN_DIR / f"spans-{workload.name}-seed{seed}.npz"
    recorder.write(path)

    per_req = 1e3 * traced.requests
    print(f"workload {workload.name} seed {seed}: traced wall "
          f"{traced.wall_s:.3f} s, untraced {base.wall_s:.3f} s, "
          f"{len(recorder)} spans written to {path.relative_to(ROOT)}")
    print(f"raw span times (host kernel {traced.calibration_ns.mean():.0f} "
          f"ns; the metrics below are scaled by {scale:.4f}):")
    print(f"{'span':32} {'calls/req':>10} {'total us/req':>13} "
          f"{'self us/req':>12}")
    for name, calls, total_ns, self_ns in ledger.rows():
        if not calls:
            continue
        print(f"{name:32} {calls / traced.requests:10.4f} "
              f"{total_ns / per_req:13.4f} {self_ns / per_req:12.4f}")
    print(f"{'sum of self times':32} {'':10} {'':13} "
          f"{ledger.total_self_ns / per_req:12.4f}  (traced wall "
          f"{root_ns / per_req:.4f} us/req)")
    spec = _spec()["per_layer"]
    for entry in spec:
        print(f"{entry['name']} {metrics[entry['name']]:.6g} {entry['unit']}")
    checked = _check_seeds(workload, seed, [base, traced], _expected())
    return _finish(checked, metrics, spec)


def regen_expected() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS, OfflineReplay, run_round

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        if isinstance(workload, OfflineReplay):
            counts = workload.reference_misses(DEFAULT_SEED)
        else:
            counts = run_round(workload, DEFAULT_SEED).counts
        out["workloads"][name] = counts
        print(name, counts)
    (HERE / "expected.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    _import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.regen_expected:
        return regen_expected()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.trace:
        return run_traced(workload, args.seed)
    return run_end_to_end(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())

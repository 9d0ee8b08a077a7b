#!/usr/bin/env python3
"""Size-aware caching: the paper's §5 future work, runnable.

Objects in web caches vary by orders of magnitude in size, and the
right metric depends on what you pay for: request misses (origin
RPS) or byte misses (origin bandwidth).  This example attaches
heavy-tailed log-normal sizes to a web-like trace and compares the
size-aware policies on both metrics.  Each one is built by name from
the registry with a byte budget; the policies are the same classes as
in the unsized examples, fed ``request(key, size)``.

Run:  python examples/size_aware_caching.py
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.policies.registry import make_sized
from repro.sized import attach_sizes, simulate_sized, unique_bytes
from repro.traces.synthetic import one_hit_wonder_trace


def main() -> None:
    rng = np.random.default_rng(11)
    keys = one_hit_wonder_trace(
        core_objects=5000, num_requests=100_000, alpha=1.0,
        ohw_fraction=0.3, rng=rng)
    sized = attach_sizes(keys, "lognormal", seed=7)
    footprint = unique_bytes(sized)
    capacity = footprint // 10
    print(f"footprint: {footprint / 1e6:.1f} MB, "
          f"cache: {capacity / 1e6:.1f} MB (10%)\n")

    rows = []
    for name in ("Sized-FIFO", "Sized-LRU", "Sized-2-bit-CLOCK",
                 "Sized-QD-LP-FIFO", "GDSF"):
        policy = make_sized(name, capacity)
        result = simulate_sized(policy, sized)
        rows.append([policy.name, result.miss_ratio,
                     result.byte_miss_ratio])

    print(render_table(
        ["policy", "object miss ratio", "byte miss ratio"],
        rows, title="Size-aware eviction on a one-hit-wonder-heavy "
                    "web workload"))
    print()
    print("GDSF hoards small objects, winning the object miss ratio;")
    print("size-aware QD-LP-FIFO filters the one-hit tail regardless of")
    print("size, winning the byte miss ratio -- exactly the trade-off")
    print("the paper's future-work paragraph anticipates.")


if __name__ == "__main__":
    main()

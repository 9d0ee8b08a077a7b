#!/usr/bin/env python3
"""Web-cache study: Quick Demotion on the web trace families.

Reproduces a slice of Fig. 5: for the web families (CDN, photo, wiki,
Twitter, social network), compares each state-of-the-art algorithm
with its QD-enhanced variant and QD-LP-FIFO at the large cache size --
the regime where the paper reports the biggest QD gains.

Run:  python examples/web_cache_study.py [--traces N]
"""

import argparse

import numpy as np

from repro.analysis.metrics import pairwise_reduction, reductions_from_baseline
from repro.analysis.tables import render_percent, render_table
from repro.policies.registry import SOTA_NAMES
from repro.sim.options import SimOptions
from repro.sim.runner import LARGE_FRACTION, run_matrix
from repro.traces.corpus import build_corpus

WEB_FAMILIES = ["cdn", "tencent_photo", "wiki", "twitter", "socialnet"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=2,
                        help="traces per family (default 2)")
    args = parser.parse_args()

    traces = build_corpus(scale=1.0, traces_per_family=args.traces,
                          families=WEB_FAMILIES)
    policies = (["FIFO"] + SOTA_NAMES
                + [f"QD-{name}" for name in SOTA_NAMES] + ["QD-LP-FIFO"])
    print(f"Simulating {len(traces)} web traces x {len(policies)} "
          "policies at the large (10%) cache size ...")
    records = run_matrix(policies, traces,
                         size_fractions=(LARGE_FRACTION,),
                         options=SimOptions(min_capacity=50))

    reductions = reductions_from_baseline(records, baseline="FIFO")
    rows = []
    for policy in policies[1:]:
        values = list(reductions[policy].values())
        rows.append([policy, render_percent(float(np.mean(values))),
                     render_percent(float(np.max(values)))])
    print()
    print(render_table(
        ["policy", "mean reduction vs FIFO", "max"],
        rows, title="Web workloads, large cache size"))

    print()
    rows = []
    for name in SOTA_NAMES:
        gains = pairwise_reduction(records, f"QD-{name}", name)
        rows.append([f"QD-{name} vs {name}",
                     render_percent(float(np.mean(gains))),
                     render_percent(float(np.max(gains)))])
    print(render_table(
        ["comparison", "mean gain", "max gain"],
        rows, title="Quick Demotion's improvement over each algorithm"))


if __name__ == "__main__":
    main()

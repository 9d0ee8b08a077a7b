#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve-hot --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints per
metric the median of the runs and the distance between the first and
third quartiles as a share of the median -- the spread a bound in
``BENCHMARK.json`` must exceed (three times over, to leave headroom).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-5")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload:
        runs = []
        started = time.perf_counter()
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout}")
                status = 1
            metrics = dict(result["metrics"])
            for line in proc.stdout.splitlines():
                if line.startswith("raw "):
                    for pair in line.split()[1:]:
                        name, _, value = pair.partition("=")
                        metrics[f"raw.{name}"] = {"value": float(value)}
            runs.append(metrics)
        print(f"{workload}: {len(runs)} runs, "
              f"{(time.perf_counter() - started) / len(runs):.1f} s each")
        for name in runs[0]:
            values = [run[name]["value"] for run in runs]
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            bound = bounds.get(name)
            flag = ("" if bound is None or spread < bound / 3
                    else "  <-- above bound/3")
            print(f"  {name:40} median {statistics.median(values):12.6g}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())

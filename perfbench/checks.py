"""Percentile rule and output checks (no program imports)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

#: Candidate percentiles, lowest first.
PERCENTILES = ("50", "90", "99", "99.9", "99.99")
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def _rank(fraction: Fraction, n: int) -> int:
    """1-based nearest rank of *fraction* among *n* sorted samples."""
    return max(1, math.ceil(fraction * n))


def highest_supported(n: int, beyond: int = MIN_BEYOND) -> Optional[str]:
    """The highest candidate percentile with >= *beyond* samples above it.

    ``None`` when even the median lacks that many samples.  Exact
    rational arithmetic: p99 of 1000 samples leaves exactly 10 beyond.
    """
    best = None
    for label in PERCENTILES:
        if n - _rank(Fraction(label) / 100, n) >= beyond:
            best = label
    return best


def nearest_rank(values: Sequence[float], percentile: str) -> float:
    """Nearest-rank *percentile* (a decimal string such as ``"99"``)."""
    ordered = np.sort(np.asarray(values))
    if ordered.size == 0:
        raise ValueError("no samples")
    return float(ordered[_rank(Fraction(percentile) / 100,
                               ordered.size) - 1])


def count_mismatches(seen: Mapping[str, int],
                     expected: Mapping[str, int]) -> List[str]:
    """One message per count that differs from its committed value."""
    return [f"{name}: expected {expected.get(name)}, got {seen.get(name)}"
            for name in sorted(set(seen) | set(expected))
            if seen.get(name) != expected.get(name)]


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def rounds_agree(counts: Sequence[Dict[str, int]]) -> List[str]:
    """Messages for rounds whose counts differ from the first round's."""
    return [f"round {index + 1}: " + "; ".join(count_mismatches(c, counts[0]))
            for index, c in enumerate(counts[1:], start=1)
            if c != counts[0]]


__all__ = ["MIN_BEYOND", "PERCENTILES", "count_mismatches",
           "highest_supported", "nearest_rank", "quartile_spread",
           "rounds_agree"]

"""Golden per-request behaviour of every ``make_sized`` name.

``data/golden_sized.json`` holds a seeded 500-request sized trace and,
for each registered sized policy at two byte budgets, the per-request
hit, ``len``, units in use and the ``(key, size)`` eviction stream.
The trace contains up- and down-resizes of resident objects, resizes
past the budget (the object is dropped), oversized requests that bypass
the cache, objects too big for the QD wrappers' probationary queue, and
ghost hits.  Any change in sized semantics shows up here as the first
differing request.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.base import CacheListener
from repro.policies.registry import make_sized, sized_names

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_sized.json").read_text())


class _Evictions(CacheListener):
    """Evicted ``(key, size)`` pairs, sizes from the last request per key."""

    def __init__(self) -> None:
        self.sizes = {}
        self.evicted = []

    def on_evict(self, key):
        self.evicted.append([key, self.sizes.pop(key)])


@pytest.mark.parametrize("capacity", sorted(GOLDEN["capacities"]))
@pytest.mark.parametrize("name", sized_names())
def test_sized_policy_matches_golden(name, capacity):
    expected = GOLDEN["capacities"][capacity][name]
    policy = make_sized(name, int(capacity))
    assert policy.name == expected["name"]
    listener = _Evictions()
    policy.add_listener(listener)
    for index, ((key, size), row) in enumerate(
            zip(GOLDEN["requests"], expected["rows"])):
        listener.sizes[key] = size
        hit = policy.request(key, size)
        if key not in policy:
            listener.sizes.pop(key, None)
        got = [int(hit), len(policy), policy.used, listener.evicted]
        assert got == row, f"request {index} ({key!r}, {size})"
        listener.evicted = []

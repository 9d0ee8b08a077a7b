"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace


@pytest.fixture
def rng():
    """A fresh deterministic numpy RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def zipf_keys(rng):
    """A 5000-request Zipf key list over 500 objects (list of ints)."""
    return zipf_trace(500, 5000, 1.0, rng).tolist()


@pytest.fixture
def small_trace(rng):
    """A small Trace object for simulator-level tests."""
    keys = zipf_trace(300, 3000, 0.9, rng)
    return Trace(name="test-zipf", keys=keys, family="test", group="block")


def drive(policy, keys):
    """Feed keys through a policy; returns the hit/miss boolean list."""
    return [policy.request(key) for key in keys]


def assert_trace_well_formed(row):
    """Assert one trace row (``RequestTracer`` JSONL shape) is a tree.

    Exactly one root; unique span ids; every ``parent_id`` names a span
    of the same trace; every span lies inside its parent's interval.
    """
    spans = row["spans"]
    by_id = {span["span_id"]: span for span in spans}
    assert len(by_id) == len(spans), "duplicate span ids"
    roots = [span for span in spans if span["parent_id"] is None]
    assert len(roots) == 1, f"{len(roots)} roots"
    for span in spans:
        assert span["start"] <= span["end"], span
        if span["parent_id"] is None:
            continue
        parent = by_id.get(span["parent_id"])
        assert parent is not None, f"dangling parent in {span}"
        assert parent["start"] <= span["start"], (parent, span)
        assert span["end"] <= parent["end"], (parent, span)


def well_formed_rows(tracer):
    """A tracer's kept traces as JSONL rows, each checked well formed."""
    rows = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
    for row in rows:
        assert_trace_well_formed(row)
    return rows

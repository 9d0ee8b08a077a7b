"""Span integrity when fast cells fan out across worker processes.

With ``workers > 1`` the fast phase runs in subprocesses while the
parent's :class:`RequestTracer` records the enclosing ``fast-fanout``
span.  These tests pin down that the sweep stays one well-formed trace
and the exported ``trace.json`` a valid Chrome trace with globally
unique span ids -- i.e. the fan-out never hands two spans the same id
or corrupts the document.
"""

import json

import numpy as np
import pytest

from repro.obs import RequestTracer, validate_chrome_trace
from repro.sim.options import SimOptions
from repro.sim.runner import run_sweep
from repro.traces.trace import Trace
from tests.conftest import well_formed_rows


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(29)
    out = []
    for index in range(3):
        keys = (rng.zipf(1.3, 4000) % 500).astype(np.int64)
        out.append(Trace(name=f"span{index}", keys=keys,
                         family="synthetic"))
    return out


def fanout_sweep(traces, tmp_path, workers):
    opts = SimOptions(fast=True, tracer=RequestTracer())
    result = run_sweep(["LRU", "FIFO", "SIEVE"], traces,
                       size_fractions=(0.1,), options=opts,
                       workers=workers, checkpoint=True,
                       run_id=f"fanout-w{workers}", runs_dir=tmp_path)
    assert result.ok
    return opts.tracer, tmp_path / f"fanout-w{workers}" / "trace.json"


class TestFanoutSpanIntegrity:
    def test_span_ids_unique_across_fanout(self, traces, tmp_path):
        tracer, _path = fanout_sweep(traces, tmp_path, workers=2)
        (row,) = well_formed_rows(tracer)   # unique ids, one sweep root
        # The fast phase collapses into one enclosing span that still
        # accounts for every fanned-out cell.
        (fanout,) = [s for s in row["spans"] if s["name"] == "fast-fanout"]
        assert fanout["args"]["cells"] == 9
        assert fanout["args"]["workers"] == 2

    def test_chrome_trace_schema_valid_after_fanout(self, traces,
                                                    tmp_path):
        _tracer, path = fanout_sweep(traces, tmp_path, workers=3)
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)    # raises on a malformed document
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        ids = [e["args"]["span_id"] for e in events]
        assert len(ids) == len(set(ids))
        assert all(e["dur"] >= 0 for e in events)
        assert any(e["name"] == "fast-fanout" for e in events)

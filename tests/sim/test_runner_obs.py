"""run_sweep temporal observability: sweep traces, trace export, timeseries."""

import json

import pytest

from repro.exec import FaultPlan, RetryPolicy, SweepInterrupted
from repro.exec.journal import Journal
from repro.obs import (
    MetricsRegistry,
    RequestTracer,
    TimeSeriesRecorder,
    series_from_rows,
    validate_chrome_trace,
)
from repro.sim.options import SimOptions
from repro.sim.runner import cell_key, run_sweep
from repro.traces.synthetic import zipf_trace
from repro.traces.trace import Trace
from tests.conftest import well_formed_rows


@pytest.fixture
def trace(rng):
    keys = zipf_trace(400, 4000, 1.0, rng)
    return Trace(name="obs-zipf", keys=keys, family="test", group="block")


def instrumented_sweep(trace, tmp_path, policies=("LRU", "FIFO", "Belady"),
                       run_id="obs-run", registry=None, **sweep_kwargs):
    registry = registry if registry is not None else MetricsRegistry()
    opts = SimOptions(
        metrics=registry,
        timeseries=TimeSeriesRecorder(registry, cadence=500),
        tracer=RequestTracer(),
    )
    result = run_sweep(list(policies), [trace], size_fractions=(0.1,),
                       options=opts, checkpoint=True, run_id=run_id,
                       runs_dir=tmp_path, **sweep_kwargs)
    return result, opts


def sweep_trace(tracer):
    """The one kept sweep trace, checked well formed, as a JSONL row."""
    (row,) = well_formed_rows(tracer)
    assert row["name"] == "sweep"
    return row


def spans_named(row, name):
    return [span for span in row["spans"] if span["name"] == name]


class TestSpans:
    def test_sweep_cell_attempt_nesting(self, trace, tmp_path):
        result, opts = instrumented_sweep(trace, tmp_path)
        assert result.ok
        row = sweep_trace(opts.tracer)

        [sweep] = spans_named(row, "sweep")
        assert sweep["parent_id"] is None
        cells = spans_named(row, "cell")
        assert len(cells) == 3              # one per policy at one size
        assert all(c["parent_id"] == sweep["span_id"] for c in cells)

        # LRU and FIFO ride the fast path (their spans carry label
        # args); Belady goes through the executor (its span carries the
        # task key) and therefore owns attempt spans.
        def policy(cell):
            return cell["args"].get("policy",
                                    cell["args"].get("key", [None] * 2)[1])

        paths = {policy(c): c["args"]["path"] for c in cells}
        assert paths["LRU"] == paths["FIFO"] == "fast"
        assert paths["Belady"] == "exec"
        attempts = spans_named(row, "attempt")
        assert attempts
        belady_cell = next(c for c in cells if policy(c) == "Belady")
        assert all(a["parent_id"] == belady_cell["span_id"]
                   for a in attempts)

    def test_chrome_trace_written_and_schema_valid(self, trace, tmp_path):
        instrumented_sweep(trace, tmp_path)
        trace_path = tmp_path / "obs-run" / "trace.json"
        assert trace_path.is_file()
        exported = json.loads(trace_path.read_text())
        validate_chrome_trace(exported)
        names = {e["name"] for e in exported["traceEvents"]}
        assert {"sweep", "cell", "attempt"} <= names
        # One lane; span/parent ids ride in args, so the tree survives.
        events = [e for e in exported["traceEvents"] if e["ph"] == "X"]
        assert len({e["tid"] for e in events}) == 1
        [sweep] = [e for e in events if e["name"] == "sweep"]
        cells = [e for e in events if e["name"] == "cell"]
        assert all(c["args"]["parent_id"] == sweep["args"]["span_id"]
                   for c in cells)
        assert sweep["dur"] >= max(c["dur"] for c in cells) > 0

    def test_retries_surface_as_extra_attempt_spans(self, trace, tmp_path):
        opts = SimOptions(tracer=RequestTracer())
        bad = cell_key("obs-zipf", "LRU", 0.1)
        plan = FaultPlan().fail(bad, attempt=1)
        result = run_sweep(["LRU"], [trace], size_fractions=(0.1,),
                          options=opts, fault_plan=plan,
                          retry=RetryPolicy(max_attempts=3,
                                            base_delay=0.0))
        assert result.ok
        row = sweep_trace(opts.tracer)
        attempts = spans_named(row, "attempt")
        assert len(attempts) == 2           # one faulted, one clean
        assert attempts[0]["args"].get("error")
        assert "error" not in attempts[1]["args"]
        [cell] = spans_named(row, "cell")
        assert cell["args"]["outcome"] == "ok"

    def test_parallel_attempts_nest_under_their_cells(self, trace):
        # Fault plans disable the fast path: both cells go through the
        # executor's process pool, which opens spans at launch and
        # ends them at settle.
        opts = SimOptions(tracer=RequestTracer())
        plan = FaultPlan().fail(cell_key("obs-zipf", "LRU", 0.1),
                                attempt=1)
        result = run_sweep(["LRU", "FIFO"], [trace], size_fractions=(0.1,),
                          options=opts, fault_plan=plan, workers=2,
                          retry=RetryPolicy(max_attempts=2,
                                            base_delay=0.0))
        assert result.ok
        row = sweep_trace(opts.tracer)
        cells = {c["args"]["key"][1]: c for c in spans_named(row, "cell")}
        assert set(cells) == {"LRU", "FIFO"}
        tries = {name: [a for a in spans_named(row, "attempt")
                        if a["parent_id"] == cell["span_id"]]
                 for name, cell in cells.items()}
        assert [a["args"]["attempt"] for a in tries["LRU"]] == [1, 2]
        assert tries["LRU"][0]["args"]["error"] == "InjectedFault"
        assert "error" not in tries["LRU"][1]["args"]
        assert len(tries["FIFO"]) == 1


class TestSweepSpanMetricDeltas:
    def test_counter_deltas_attached_to_sweep_span(self, trace, tmp_path):
        _result, opts = instrumented_sweep(trace, tmp_path)
        [sweep] = spans_named(sweep_trace(opts.tracer), "sweep")
        deltas = sweep["args"]["metric_deltas"]
        assert deltas["sweep_cells_total{path=fast}"] == 2
        assert deltas["exec_attempts_total"] == 1

    def test_zero_delta_counters_omitted(self, trace, tmp_path):
        registry = MetricsRegistry()
        registry.counter("quiet_total").inc(5)   # before the sweep opens
        _result, opts = instrumented_sweep(trace, tmp_path,
                                           registry=registry)
        [sweep] = spans_named(sweep_trace(opts.tracer), "sweep")
        deltas = sweep["args"]["metric_deltas"]
        assert "quiet_total" not in deltas
        assert all(value != 0 for value in deltas.values())
        # Resumed, every cell is restored before the sweep span opens:
        # nothing counts inside it, so it carries no deltas at all.
        _result, opts = instrumented_sweep(trace, tmp_path,
                                           registry=registry,
                                           resume="obs-run")
        [sweep] = spans_named(sweep_trace(opts.tracer), "sweep")
        assert "metric_deltas" not in sweep["args"]

    def test_exception_recorded_on_sweep_span(self, trace, tmp_path):
        tracer = RequestTracer()
        plan = FaultPlan().abort_after_completions(1)
        with pytest.raises(SweepInterrupted):
            run_sweep(["LRU", "FIFO"], [trace], size_fractions=(0.1,),
                      options=SimOptions(tracer=tracer), fault_plan=plan)
        row = sweep_trace(tracer)
        assert row["outcome"] == "error"
        [sweep] = spans_named(row, "sweep")
        assert "SweepInterrupted" in sweep["args"]["error"]


class TestTimeseries:
    def test_fast_and_exec_cells_feed_windowed_series(self, trace, tmp_path):
        result, opts = instrumented_sweep(trace, tmp_path)
        recorder = opts.timeseries
        key = "sim_misses_total{policy=LRU,size=0.1,trace=obs-zipf}"
        assert key in recorder.series_names()
        requests = recorder.series(
            "sim_requests_total{policy=LRU,size=0.1,trace=obs-zipf}")
        assert sum(v for _, _, v in requests) == trace.num_requests

    def test_journal_carries_timeseries_line(self, trace, tmp_path):
        instrumented_sweep(trace, tmp_path)
        state = Journal(tmp_path / "obs-run").load()
        assert state.timeseries
        grouped = series_from_rows(state.timeseries)
        assert any(name.startswith("sim_misses_total") for name in grouped)

    def test_windowed_miss_ratio_sums_to_run_totals(self, trace, tmp_path):
        result, opts = instrumented_sweep(trace, tmp_path,
                                          policies=("LRU",))
        [record] = result.records
        recorder = opts.timeseries
        labels = "{policy=LRU,size=0.1,trace=obs-zipf}"
        misses = sum(v for _, _, v in
                     recorder.series(f"sim_misses_total{labels}"))
        assert misses == record.misses


class TestUninstrumented:
    def test_defaults_record_nothing(self, trace):
        opts = SimOptions()
        result = run_sweep(["LRU"], [trace], size_fractions=(0.1,),
                          options=opts)
        assert result.ok
        assert opts.timeseries is None and opts.tracer is None

"""repro.obs -- the unified telemetry subsystem.

One observability layer for all three runtime surfaces of this repo,
replacing the ad-hoc prints, per-subsystem dataclasses and one-off JSON
artifacts that accumulated as the repo grew:

* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` with thread-safe
  counters, gauges, and fixed-bucket histograms (the zero-dependency
  core; modelled on libCacheSim/Cachelib stats pipelines).
* :mod:`repro.obs.tracer` -- :class:`CacheTracer`, a
  :class:`~repro.core.base.CacheListener` recording admit / evict /
  promote / ghost-hit event streams in bounded ring buffers and feeding
  eviction-age histograms (the paper's Fig. 2e/3 lens).
* :mod:`repro.obs.export` -- JSON-lines snapshots, the Prometheus text
  format, and the human table behind ``repro metrics``.
* :mod:`repro.obs.timeseries` -- :class:`TimeSeriesRecorder`, windowed
  curves (miss ratio, eviction age, promotion rate, ...) sampled on a
  virtual-time cadence with bounded memory; behind ``repro
  timeseries``.
* :mod:`repro.obs.reqtrace` -- :class:`RequestTracer`, the one span
  model: per-request distributed tracing with seeded head sampling plus
  tail-based keep rules (errors, drops, breaker-opens, slow requests),
  a propagated :class:`TraceContext` joining service / cluster /
  hierarchy / open-loop spans into one tree, histogram exemplars
  linking ``repro metrics`` buckets to ``repro trace show``, and
  sweep→cell→attempt traces of :func:`~repro.sim.runner.run_sweep`;
  exported as JSONL and as Chrome trace-event JSON for
  ``chrome://tracing``/Perfetto.
* :mod:`repro.obs.diff` -- :func:`diff_runs`, cross-run regression
  diffing of journal snapshots and time series; behind ``repro diff``.

Every :class:`~repro.service.CacheService` and
:class:`~repro.cluster.CacheCluster` counts its outcomes in a
:class:`MetricsRegistry` -- a private one unless the caller passes a
shared registry.  Three things are **opt-in**: a shared registry
(pass one to services, clusters or
:func:`~repro.sim.runner.run_sweep` via :class:`~repro.sim.SimOptions`
to read their metrics in one place); histogram exemplars, which need
a shared registry and a :class:`RequestTracer`; and the tracers
themselves -- a :class:`RequestTracer` for requests or sweeps, or a
:class:`CacheTracer` listener attached to a policy.
``benchmarks/check_obs_overhead.py`` gates only the offline fast path:
``simulate`` on the vectorized engines with a registry or a time-series
recorder must stay within 5 % of the uninstrumented replay.
"""

from repro.obs.diff import (
    DEFAULT_IGNORES,
    DiffReport,
    DiffRow,
    DiffThresholds,
    diff_runs,
    diff_states,
    load_run,
)
from repro.obs.export import (
    parse_prometheus_values,
    read_jsonl,
    render_metrics_table,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_AGE_BUCKETS,
    DEFAULT_DURATION_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    merge_snapshots,
)
from repro.obs.reqtrace import (
    CHROME_TRACE_SCHEMA,
    NOT_SAMPLED,
    ActiveSpan,
    RequestTracer,
    TailRules,
    TraceContext,
    chrome_from_rows,
    read_trace_jsonl,
    render_trace_list,
    render_trace_tree,
    validate_chrome_trace,
    validate_json,
)
from repro.obs.timeseries import (
    TimeSeriesRecorder,
    read_timeseries_jsonl,
    render_csv,
    render_sparklines,
    series_from_rows,
    series_key,
    sparkline,
)
from repro.obs.tracer import (
    ADMIT,
    EVICT,
    EVENT_KINDS,
    GHOST_HIT,
    PROMOTE,
    CacheEvent,
    CacheTracer,
)

__all__ = [
    "ADMIT",
    "CHROME_TRACE_SCHEMA",
    "DEFAULT_AGE_BUCKETS",
    "DEFAULT_DURATION_BUCKETS",
    "DEFAULT_IGNORES",
    "DEFAULT_LATENCY_BUCKETS",
    "EVICT",
    "EVENT_KINDS",
    "GHOST_HIT",
    "NOT_SAMPLED",
    "PROMOTE",
    "ActiveSpan",
    "CacheEvent",
    "CacheTracer",
    "Counter",
    "DiffReport",
    "DiffRow",
    "DiffThresholds",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestTracer",
    "TailRules",
    "TimeSeriesRecorder",
    "TraceContext",
    "chrome_from_rows",
    "diff_runs",
    "diff_states",
    "exponential_buckets",
    "load_run",
    "merge_snapshots",
    "parse_prometheus_values",
    "read_jsonl",
    "read_timeseries_jsonl",
    "read_trace_jsonl",
    "render_csv",
    "render_metrics_table",
    "render_sparklines",
    "render_trace_list",
    "render_trace_tree",
    "series_from_rows",
    "series_key",
    "sparkline",
    "to_jsonl",
    "to_prometheus",
    "validate_chrome_trace",
    "validate_json",
    "write_jsonl",
]

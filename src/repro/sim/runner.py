"""Sweep runner: (policy x trace x cache size) simulation matrices.

The paper's experiments all have the same shape -- run a set of
algorithms over a corpus of traces at the "small" (0.1 % of unique
objects) and "large" (10 %) cache sizes and aggregate the per-trace
miss ratios.  :func:`run_sweep` executes that matrix through the
fault-tolerant execution layer (:mod:`repro.exec`): every
(trace, policy, size) cell is an independent task, so a worker crash,
exception, or timeout fails that cell only; cells retry per a
:class:`~repro.exec.retry.RetryPolicy`; and with checkpointing enabled
every completed cell is journalled to ``runs/<run-id>/journal.jsonl``
so an interrupted sweep resumes losslessly via ``resume=<run-id>``.

Results are always returned in deterministic (trace, size, policy)
order regardless of worker scheduling, retries, or resume.
:func:`run_matrix` is the records-only convenience wrapper the
analysis layer consumes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.executor import Task, run_tasks
from repro.exec.faults import FaultPlan
from repro.exec.journal import Journal
from repro.exec.report import FailureReport
from repro.exec.retry import NO_RETRY, RetryPolicy
from repro.obs.metrics import DEFAULT_DURATION_BUCKETS, MetricsRegistry
from repro.obs.reqtrace import ActiveSpan
from repro.policies.registry import make, resolve
from repro.sim.fast.batch import BatchRunner
from repro.sim.fast.dispatch import has_fast_engine
from repro.sim.options import SimOptions
from repro.sim.simulator import simulate
from repro.traces.trace import Trace

#: The paper's two evaluation points: 0.1 % and 10 % of unique objects.
SMALL_FRACTION = 0.001
LARGE_FRACTION = 0.1
SIZE_LABELS = {SMALL_FRACTION: "small", LARGE_FRACTION: "large"}


@dataclass(frozen=True)
class RunRecord:
    """One (policy, trace, size) simulation outcome."""

    policy: str
    trace: str
    family: str
    group: str
    size_fraction: float
    capacity: int
    requests: int
    misses: int

    @property
    def miss_ratio(self) -> float:
        """Miss ratio of this run."""
        if self.requests == 0:
            return 0.0
        return self.misses / self.requests

    @property
    def size_label(self) -> str:
        """'small' / 'large' for the paper's two sizes, else the number."""
        return SIZE_LABELS.get(self.size_fraction, str(self.size_fraction))


def run_one(policy_name: str, trace: Trace, size_fraction: float,
            min_capacity: int = 10) -> RunRecord:
    """Simulate one policy over one trace at one relative cache size."""
    capacity = trace.cache_size(size_fraction, minimum=min_capacity)
    spec = resolve(policy_name)
    capacity = max(capacity, spec.min_capacity)
    policy = make(spec.name, capacity)
    result = simulate(policy, trace)
    return RunRecord(
        policy=spec.name,
        trace=trace.name,
        family=trace.family,
        group=trace.group,
        size_fraction=size_fraction,
        capacity=capacity,
        requests=result.requests,
        misses=result.misses,
    )


# ----------------------------------------------------------------------
# Cell tasks for the execution layer
# ----------------------------------------------------------------------

def cell_key(trace_name: str, policy_name: str,
             size_fraction: float) -> Tuple[str, str, float]:
    """Journal/report identity of one sweep cell."""
    return (trace_name, policy_name, float(size_fraction))


def _run_cell(payload) -> RunRecord:
    """Execution-layer task body: simulate one cell."""
    trace, policy_name, size_fraction, min_capacity = payload
    return run_one(policy_name, trace, size_fraction, min_capacity)


def _fast_cell(payload, timeseries=None,
               intern_cache=None) -> Optional[RunRecord]:
    """One cell through the shared-trace fast engines, or ``None``.

    Produces a record identical to :func:`run_one`'s (the engines'
    hit/miss sequences are bit-identical to the reference policies);
    the capacity derivation matches field for field.  With a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` the engine's hit
    mask additionally yields the cell's windowed request/hit/miss
    curves, labelled (policy, trace, size).
    """
    trace, policy_name, size_fraction, min_capacity = payload
    if not has_fast_engine(policy_name):
        return None
    capacity = trace.cache_size(size_fraction, minimum=min_capacity)
    capacity = max(capacity, resolve(policy_name).min_capacity)
    mask_sink = None
    if timeseries is not None:
        def mask_sink(mask):
            timeseries.record_mask(mask, policy=policy_name,
                                   trace=trace.name,
                                   size=str(size_fraction))
    outcome = BatchRunner(intern_cache=intern_cache).run(
        policy_name, trace, capacity, mask_sink=mask_sink)
    if outcome is None:
        return None
    return RunRecord(
        policy=policy_name,
        trace=trace.name,
        family=trace.family,
        group=trace.group,
        size_fraction=size_fraction,
        capacity=capacity,
        requests=outcome.requests,
        misses=outcome.misses,
    )


def _fast_cell_worker(payload, cache=None) -> RunRecord:
    """Execution-layer task body for the *parallel* fast phase.

    Unlike :func:`_fast_cell` this raises when the cell cannot be
    served by a fast engine, so the execution layer records a failure
    and the cell falls back to the reference phase -- ``None`` would be
    journalled as a (bogus) success.  Each worker process interns its
    trace independently; *cache* (an
    :class:`~repro.sim.fast.interncache.InternCache`, shipped by
    ``functools.partial``) lets them share that work through the
    on-disk store instead of repeating it per worker.
    """
    record = _fast_cell(payload, intern_cache=cache)
    if record is None:
        raise RuntimeError(
            f"no fast engine for {payload[1]!r}; cell falls back to the "
            f"reference phase")
    return record


def _cell_tasks(policy_names: Sequence[str], traces: Sequence[Trace],
                size_fractions: Sequence[float],
                min_capacity: int) -> List[Task]:
    """The matrix as independent tasks, in canonical result order."""
    tasks = []
    for trace in traces:
        for fraction in size_fractions:
            for name in policy_names:
                tasks.append(Task(
                    key=cell_key(trace.name, name, fraction),
                    payload=(trace, name, float(fraction), min_capacity)))
    return tasks


def _record_to_json(record: RunRecord) -> dict:
    return asdict(record)


def _record_from_json(payload: dict) -> RunRecord:
    return RunRecord(**payload)


@dataclass
class SweepResult:
    """Everything one sweep produced, including what it lost.

    ``records`` holds the successful cells in deterministic
    (trace, size, policy) order; ``failures`` describes cells whose
    retries were exhausted; ``run_id`` is set when checkpointing was on
    (pass it back as ``resume=`` to continue an interrupted run);
    ``resumed`` counts cells restored from the journal rather than
    simulated; ``accelerated`` counts cells served by the vectorized
    engines instead of the reference simulator.
    """

    records: List[RunRecord]
    failures: FailureReport
    run_id: Optional[str] = None
    resumed: int = 0
    accelerated: int = 0
    #: the registry passed via ``SimOptions.metrics``, after the sweep
    #: recorded its counters/timings into it (None when not supplied)
    metrics: Optional["MetricsRegistry"] = None

    @property
    def ok(self) -> bool:
        """True when every cell completed."""
        return self.failures.ok


@contextmanager
def _traced(span: Optional[ActiveSpan],
            registry: Optional[MetricsRegistry]):
    """Run the block inside *span* (``None``: untraced), then end it.

    With a *registry*, the counter deltas that accrued inside the block
    land on the span as ``metric_deltas`` (zero deltas omitted); an
    exception escaping the block is recorded on the span and re-raised.
    """
    if span is None:
        yield
        return
    before = registry.counter_values() if registry is not None else None
    with span:
        try:
            yield
        finally:
            if before is not None:
                after = registry.counter_values()
                deltas = {name: value - before.get(name, 0)
                          for name, value in after.items()
                          if value != before.get(name, 0)}
                if deltas:
                    span.note(metric_deltas=deltas)


def _sweep_options(options: Optional[SimOptions]) -> SimOptions:
    """*options*, checked for what ``run_sweep`` supports."""
    if options is None:
        return SimOptions()
    if not isinstance(options, SimOptions):
        raise TypeError(
            f"options must be a SimOptions, got {type(options).__name__}")
    if options.warmup:
        raise ValueError("run_sweep does not support warmup")
    if options.listeners:
        raise ValueError("run_sweep does not support listeners")
    return options


def run_sweep(
    policy_names: Sequence[str],
    traces: Iterable[Trace],
    size_fractions: Sequence[float] = (SMALL_FRACTION, LARGE_FRACTION),
    options: Optional[SimOptions] = None,
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    resume: Optional[str] = None,
    run_id: Optional[str] = None,
    checkpoint: bool = False,
    runs_dir=None,
    fault_plan: Optional[FaultPlan] = None,
) -> SweepResult:
    """Run the (policy x trace x size) matrix fault-tolerantly.

    *options* is a :class:`~repro.sim.options.SimOptions` (its
    ``min_capacity``, ``fast``, ``metrics``, ... fields).  Policy
    names accept the registry's aliases ("sieve", "clock2", ...) and
    are canonicalised before the matrix is built.

    With ``fast=True`` (the default) every cell whose policy has a
    vectorized engine is served from the shared interned trace first --
    the trace is interned once and reused across all of its
    (policy, size) cells.  With ``workers <= 1`` those cells run
    in-process; with ``workers > 1`` (and no
    ``options.timeseries``, whose recorder lives in this process) they
    fan out across worker processes through the same process-isolating
    executor the reference cells use, with ``options.intern_cache``
    letting the workers share the interning work through the on-disk
    store instead of repeating it per process.  A fast cell that fails
    in a worker simply falls back to the reference phase -- no retries,
    no entry in the failure report unless the reference attempt also
    fails.  Remaining cells (unsupported policies) go through the
    execution layer as before.  Fast cells are journalled like any
    other completed cell, so checkpoint/resume semantics are unchanged
    and ``accelerated`` counts them either way.  Fault injection plans
    disable the fast path: faults target the execution layer, so every
    cell must actually flow through it.

    ``workers > 1`` gives each cell attempt its own worker process --
    simulation is pure CPU-bound Python, so threads would not help, and
    per-attempt processes additionally isolate crashes and enforce the
    retry policy's per-task timeout.  Cell failures do not raise; they
    are reported in the returned :class:`SweepResult`.

    Checkpointing is enabled by ``checkpoint=True``, an explicit
    ``run_id``, or ``resume=<run-id>`` (which loads the journal, skips
    its finished cells, and appends to it).  Resuming validates that
    the sweep's shape (policies, traces, sizes, min_capacity) matches
    the journal's; a mismatch raises ``ValueError``.

    Temporal observability is opt-in via *options*: with
    ``options.timeseries`` set, every fast-path cell records windowed
    request/hit/miss curves labelled (policy, trace, size) -- derived
    from the engine's hit mask, so the replay loop is untouched -- and
    the rows are journalled as a ``timeseries`` line; with
    ``options.tracer`` (a :class:`~repro.obs.reqtrace.RequestTracer`)
    set, the sweep is recorded as one trace -- a ``sweep`` root marked
    to survive the tail rules, with ``cell`` and ``attempt`` spans
    nested under it, and counter deltas from ``options.metrics`` on the
    sweep and ``fast-fanout`` spans -- and, when checkpointing,
    ``trace.json`` (Chrome trace-event JSON, loadable in Perfetto) is
    written next to the journal.
    """
    opts = _sweep_options(options)
    min_capacity = opts.min_capacity
    fast = opts.resolved_fast(True)
    policy_names = [resolve(n).name for n in policy_names]
    trace_list = list(traces)
    fractions = [float(f) for f in size_fractions]
    tasks = _cell_tasks(policy_names, trace_list, fractions, min_capacity)

    meta = {
        "policies": list(policy_names),
        "traces": [t.name for t in trace_list],
        "size_fractions": fractions,
        "min_capacity": min_capacity,
    }
    journal: Optional[Journal] = None
    completed: Dict[Tuple, RunRecord] = {}
    if resume:
        journal = Journal.open(resume, root=runs_dir)
        state = journal.load()
        if state.meta is not None and state.meta != meta:
            journal.close()
            raise ValueError(
                f"run {resume!r} was checkpointed for a different sweep "
                f"(policies/traces/sizes/min_capacity differ); refusing "
                f"to resume")
        completed = {key: _record_from_json(payload)
                     for key, payload in state.results.items()}
    elif checkpoint or run_id:
        journal = Journal.create(run_id=run_id, root=runs_dir, meta=meta)

    registry = opts.metrics
    fast_cell_seconds = None
    cells_total = None
    if registry is not None:
        fast_cell_seconds = registry.histogram(
            "sweep_cell_seconds", "Wall time of vectorized sweep cells",
            DEFAULT_DURATION_BUCKETS, path="fast")
        cells_total = {
            path: registry.counter(
                "sweep_cells_total", "Sweep cells completed by path",
                path=path)
            for path in ("fast", "exec", "resumed")}
        cells_total["resumed"].inc(len(completed))

    tracer = opts.tracer
    sweep = None
    if tracer is not None:
        sweep = tracer.start("sweep", policies=list(policy_names),
                             traces=[t.name for t in trace_list],
                             sizes=fractions)
        if sweep is not None:
            sweep.mark("sweep")

    accelerated = 0
    try:
        with _traced(sweep, registry):
            fast_todo = [task for task in tasks
                         if task.key not in completed
                         and has_fast_engine(task.payload[1])]
            if fast and fault_plan is None and workers > 1 \
                    and opts.timeseries is None and len(fast_todo) > 1:
                # Fan the fast cells across worker processes.  Retries
                # are pointless here (a failed fast cell falls straight
                # back to the reference phase below), and the exec-path
                # metrics/spans stay reserved for genuine exec cells --
                # the fast phase gets one enclosing span and a bulk
                # counter instead.
                fanout = (sweep.child("fast-fanout", cells=len(fast_todo),
                                      workers=workers)
                          if sweep is not None else None)
                with _traced(fanout, registry):
                    fast_outcome = run_tasks(
                        fast_todo,
                        partial(_fast_cell_worker, cache=opts.intern_cache),
                        workers=workers,
                        retry=NO_RETRY,
                        journal=journal,
                        encode=_record_to_json,
                    )
                completed.update(fast_outcome.results)
                accelerated = len(fast_outcome.results)
                if cells_total is not None:
                    cells_total["fast"].inc(accelerated)
            elif fast and fault_plan is None:
                for task in fast_todo:
                    started = time.perf_counter()
                    cell_start = tracer.now() if sweep is not None else 0.0
                    record = _fast_cell(task.payload, opts.timeseries,
                                        opts.intern_cache)
                    if record is None:
                        continue
                    completed[task.key] = record
                    accelerated += 1
                    if sweep is not None:
                        trace_name, policy_name, fraction = task.key
                        sweep.add_span(
                            "cell", cell_start, tracer.now(),
                            trace=trace_name, policy=policy_name,
                            size=fraction, path="fast")
                    if registry is not None:
                        fast_cell_seconds.observe(
                            time.perf_counter() - started)
                        cells_total["fast"].inc()
                    if journal is not None:
                        journal.record_result(task.key,
                                              _record_to_json(record))
            outcome = run_tasks(
                tasks, _run_cell,
                workers=workers,
                retry=retry if retry is not None else NO_RETRY,
                journal=journal,
                completed=completed,
                fault_plan=fault_plan,
                encode=_record_to_json,
                registry=registry,
                span=sweep,
            )
        if cells_total is not None:
            cells_total["exec"].inc(outcome.executed - len(outcome.failures))
        if journal is not None:
            if registry is not None:
                journal.record_metrics(registry.snapshot())
            if opts.timeseries is not None:
                journal.record_timeseries(opts.timeseries.to_rows())
            if sweep is not None:
                tracer.write_chrome_trace(journal.directory / "trace.json")
    finally:
        if journal is not None:
            journal.close()

    records = [outcome.results[task.key] for task in tasks
               if task.key in outcome.results]
    return SweepResult(
        records=records,
        failures=outcome.failures,
        run_id=journal.run_id if journal is not None else None,
        resumed=outcome.resumed - accelerated,
        accelerated=accelerated,
        metrics=registry,
    )


def run_matrix(
    policy_names: Sequence[str],
    traces: Iterable[Trace],
    size_fractions: Sequence[float] = (SMALL_FRACTION, LARGE_FRACTION),
    options: Optional[SimOptions] = None,
    workers: int = 1,
    **sweep_kwargs,
) -> List[RunRecord]:
    """Run the full matrix and return the records.

    Convenience wrapper over :func:`run_sweep`; extra keyword arguments
    (``retry``, ``resume``, ``run_id``, ``checkpoint``, ``runs_dir``,
    ``fault_plan``) pass straight through.  On cell failure the remaining records are still
    returned (graceful degradation) -- use :func:`run_sweep` when the
    caller needs the :class:`~repro.exec.report.FailureReport`.
    """
    return run_sweep(policy_names, traces, size_fractions=size_fractions,
                     options=options, workers=workers,
                     **sweep_kwargs).records


def index_by(records: Iterable[RunRecord]
             ) -> Dict[Tuple[str, str, float], RunRecord]:
    """Index records by (policy, trace, size_fraction) for joins."""
    return {(r.policy, r.trace, r.size_fraction): r for r in records}


def miss_ratio_table(
    records: Iterable[RunRecord],
) -> Dict[str, Dict[Tuple[str, float], float]]:
    """policy -> {(trace, size) -> miss ratio} nested mapping."""
    table: Dict[str, Dict[Tuple[str, float], float]] = {}
    for record in records:
        table.setdefault(record.policy, {})[
            (record.trace, record.size_fraction)] = record.miss_ratio
    return table


__all__ = [
    "SMALL_FRACTION",
    "LARGE_FRACTION",
    "SIZE_LABELS",
    "RunRecord",
    "SweepResult",
    "cell_key",
    "run_one",
    "run_sweep",
    "run_matrix",
    "index_by",
    "miss_ratio_table",
]

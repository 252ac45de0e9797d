"""Observability: structured telemetry, profiling hooks, run manifests.

The ``repro.obs`` package is the unified observability layer threaded
through the engine, the prefetchers, the experiment runner and the CLI:

* :mod:`repro.obs.telemetry` — per-prefetcher component counters
  (coverage / accuracy / timeliness / pollution per SN4L, Dis, … source)
  and the event-count <-> :class:`~repro.frontend.stats.FrontendStats`
  reconciliation used by the trace smoke test;
* :mod:`repro.obs.profile` — context-manager timing spans and monotonic
  counters (``PROFILER``) instrumenting ``run_scheme``, the parallel
  pool and the persistent store;
* :mod:`repro.obs.tracing` — streaming JSONL event traces
  (``repro run --trace out.jsonl``) and their readers;
* :mod:`repro.obs.bench` — the ``repro bench`` benchmark matrix with
  its append-only JSONL measurement history (and the derived
  ``BENCH_throughput.json`` view);
* :mod:`repro.obs.regress` — the statistical regression gate
  (``repro bench --check``): t-interval comparison against the stored
  baseline plus deterministic behaviour-digest matching;
* :mod:`repro.obs.traceql` — trace analytics (``repro trace
  summarize|diff|query``) with per-component drift attribution.

Everything here is opt-in: with no event log attached and no profiler
consumer, the default simulation path is unchanged (the engine's
``event_log is None`` checks keep every inlined leg of the vectorized
loop).
"""

from .bench import BenchCell, MATRICES, run_cell, run_matrix
from .metrics import (
    REGISTRY,
    MetricsRegistry,
    declare_counter,
    declare_gauge,
    declare_histogram,
    inc,
    log_spaced_buckets,
    observe,
    parse_prometheus_text,
    quantile_from_buckets,
    render_metrics,
    set_gauge,
)
from .profile import PROFILER, Profiler, SpanStats
from .regress import Verdict, check_record, check_records, markdown_report
from .telemetry import (
    RECONCILED_COUNTERS,
    SPAN_EVENT_COUNTS,
    STORE_EVENT_COUNTS,
    ComponentCounters,
    add_span_listener,
    add_store_listener,
    component_report,
    reconcile,
    remove_span_listener,
    remove_store_listener,
    span_event,
    span_event_counts,
    store_event,
    store_event_counts,
)
from .traceql import diff_traces, query_trace, summarize_trace
from .tracing import (
    TRACER,
    JsonlTraceLog,
    Span,
    TraceContext,
    Tracer,
    read_trace,
    read_trace_spans,
    trace_run,
)

__all__ = [
    "PROFILER",
    "Profiler",
    "SpanStats",
    "ComponentCounters",
    "RECONCILED_COUNTERS",
    "STORE_EVENT_COUNTS",
    "add_store_listener",
    "remove_store_listener",
    "store_event",
    "store_event_counts",
    "reconcile",
    "component_report",
    "JsonlTraceLog",
    "read_trace",
    "trace_run",
    "TRACER",
    "Tracer",
    "TraceContext",
    "Span",
    "read_trace_spans",
    "REGISTRY",
    "MetricsRegistry",
    "declare_counter",
    "declare_gauge",
    "declare_histogram",
    "inc",
    "set_gauge",
    "observe",
    "render_metrics",
    "parse_prometheus_text",
    "quantile_from_buckets",
    "log_spaced_buckets",
    "SPAN_EVENT_COUNTS",
    "add_span_listener",
    "remove_span_listener",
    "span_event",
    "span_event_counts",
    "BenchCell",
    "MATRICES",
    "run_cell",
    "run_matrix",
    "Verdict",
    "check_record",
    "check_records",
    "markdown_report",
    "diff_traces",
    "query_trace",
    "summarize_trace",
]

"""Observability: structured telemetry, metrics, traces, run manifests.

The ``repro.obs`` package is the unified observability layer threaded
through the engine, the prefetchers, the experiment runner and the CLI:

* :mod:`repro.obs.telemetry` — per-prefetcher component counters
  (coverage / accuracy / timeliness / pollution per SN4L, Dis, … source),
  the event-count <-> :class:`~repro.frontend.stats.FrontendStats`
  reconciliation used by the trace smoke test, and the persistent
  store's lifecycle events;
* :mod:`repro.obs.metrics` — the process-wide ``REGISTRY``, the one
  place counts and durations add up: ``run_scheme`` runs and cache
  hits, pool wall times, store counts and events and the service's own
  metrics, rendered by ``repro stats`` and ``/metricsz`` and shipped
  home by pool workers;
* :mod:`repro.obs.tracing` — streaming JSONL event traces
  (``repro run --trace out.jsonl``) and their readers, plus the
  request-scoped spans of the served simulator;
* :mod:`repro.obs.bench` — the ``repro bench`` benchmark matrix with
  its append-only JSONL measurement history (and the derived
  ``BENCH_throughput.json`` view);
* :mod:`repro.obs.regress` — the statistical regression gate
  (``repro bench --check``): t-interval comparison against the stored
  baseline plus deterministic behaviour-digest matching;
* :mod:`repro.obs.traceql` — trace analytics (``repro trace
  summarize|diff|query``) with per-component drift attribution.

Everything inside the engine is opt-in: with no event log attached,
the default simulation path is unchanged (the engine's ``event_log is
None`` checks keep every inlined leg of the vectorized loop); the
registry counts whole runs, never per-record work.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bench import MATRICES, BenchCell, run_cell, run_matrix
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
    from .regress import Verdict, check_record, check_records, markdown_report
    from .telemetry import (
        RECONCILED_COUNTERS,
        ComponentCounters,
        add_store_listener,
        component_report,
        reconcile,
        remove_store_listener,
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
    "ComponentCounters",
    "RECONCILED_COUNTERS",
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

__getattr__ = lazy_exports(__name__, {
    ".bench": ("MATRICES", "BenchCell", "run_cell", "run_matrix"),
    ".metrics": ("REGISTRY", "MetricsRegistry", "declare_counter",
                 "declare_gauge", "declare_histogram", "inc",
                 "log_spaced_buckets", "observe", "parse_prometheus_text",
                 "quantile_from_buckets", "render_metrics", "set_gauge"),
    ".regress": ("Verdict", "check_record", "check_records",
                 "markdown_report"),
    ".telemetry": ("RECONCILED_COUNTERS", "ComponentCounters",
                   "add_store_listener", "component_report", "reconcile",
                   "remove_store_listener", "store_event",
                   "store_event_counts"),
    ".traceql": ("diff_traces", "query_trace", "summarize_trace"),
    ".tracing": ("TRACER", "JsonlTraceLog", "Span", "TraceContext", "Tracer",
                 "read_trace", "read_trace_spans", "trace_run"),
})

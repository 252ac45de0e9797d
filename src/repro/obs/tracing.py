"""Engine event traces and request-scoped distributed tracing.

Two tracing planes live here:

* **Engine event traces** — the ring-buffered
  :class:`~repro.frontend.eventlog.EventLog` keeps only the last
  ``capacity`` events; :class:`JsonlTraceLog` additionally writes
  *every* event to a JSON Lines file as it is emitted, so a full run's
  event stream survives.  A ``{"marker": "measurement_start"}`` line is
  written when the engine resets its statistics after warmup; readers
  count events after the last marker, which is what makes the trace
  reconcile exactly with the returned
  :class:`~repro.frontend.stats.FrontendStats` (see
  :func:`repro.obs.telemetry.reconcile`).

* **Request-scoped spans** — :class:`TraceContext` /:class:`Tracer`
  carry one request's identity from :class:`~repro.service.ServiceClient`
  through the HTTP layer (``X-Repro-Trace`` header), the job queue, the
  ``run_many`` worker processes and down to the engine's ``run_scheme``.
  Span/trace ids are **deterministic**: a SHA-256 over a caller-supplied
  seed (the job fingerprint) and a per-process counter — no wall clock,
  no RNG — so a replayed submission names the same trace.  Wall time
  appears only as span *data* (``start_ts``/``duration_s``).  Worker
  processes return their spans in the same snapshot as their metrics
  and the parent folds them in with :meth:`Tracer.merge`.  Finished
  spans are counted in ``repro_spans_total{name}`` and persisted per
  trace under ``<cache root>/service/traces/``, sharded like the result
  store.

Engine event tracing is strictly opt-in: a simulator with ``event_log
is None`` takes the exact pre-observability path, every inlined leg of
the vectorized loop included.  Span tracing costs one context-variable read when no
trace is active, and can be disabled wholesale with
``REPRO_TRACE_SAMPLE=0``.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import time
import warnings
from collections import Counter, deque
from contextlib import contextmanager
from pathlib import Path
from threading import Lock
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from ..frontend.eventlog import Event, EventLog

MEASUREMENT_MARKER = "measurement_start"

#: Environment knob: fraction of new traces that are sampled, in [0, 1].
ENV_TRACE_SAMPLE = "REPRO_TRACE_SAMPLE"


class JsonlTraceLog(EventLog):
    """An :class:`EventLog` that also streams every event to a file.

    Use as a context manager (or call :meth:`close`) to flush:

    >>> with JsonlTraceLog("out.jsonl") as log:   # doctest: +SKIP
    ...     sim.event_log = log
    ...     sim.run()
    """

    def __init__(self, path, capacity: int = 4096,
                 strict: Optional[bool] = None, extra_kinds=()):
        super().__init__(capacity=capacity, strict=strict,
                         extra_kinds=extra_kinds)
        self.path = path
        self.events_written = 0
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, cycle: int, kind: str, addr: int,
             detail: str = "", source: str = "") -> None:
        super().emit(cycle, kind, addr, detail, source)
        # The appended event, post-validation (a degraded kind streams
        # as "unknown", same as it was counted).
        event = self._events[-1]
        self._fh.write(json.dumps(event.to_dict(),
                                  separators=(",", ":")) + "\n")
        self.events_written += 1

    def mark_measurement_start(self) -> None:
        super().mark_measurement_start()
        self._fh.write(json.dumps({"marker": MEASUREMENT_MARKER}) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlTraceLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path) -> Tuple[List[Event], Dict[str, int]]:
    """Read a JSONL trace; returns ``(measured_events, counts)``.

    ``measured_events`` are the events after the last measurement marker
    (the whole file when no marker is present), and ``counts`` are their
    per-kind totals — directly comparable with ``FrontendStats`` through
    :func:`repro.obs.telemetry.reconcile`.
    """
    measured: List[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            d = json.loads(raw)
            if d.get("marker") == MEASUREMENT_MARKER:
                measured = []
                continue
            measured.append(Event.from_dict(d))
    counts: Counter = Counter(e.kind for e in measured)
    return measured, dict(counts)


def trace_run(workload: str, scheme: str, out_path,
              n_records: int = 20_000, warmup: Optional[int] = None,
              scale: float = 1.0, variable_length: bool = False,
              config_overrides: Optional[Dict] = None):
    """Simulate one (workload, scheme) pair streaming events to JSONL.

    Returns ``(stats, counts)`` where ``counts`` are the measured-window
    event totals.  Mirrors ``run_scheme``'s construction (same trace,
    config and default warmup of a third of the records) so the returned
    statistics are bit-identical to a cached run of the same parameters
    — but never reads or writes the result caches, because a cached
    result has no event stream.
    """
    from ..experiments.runner import build_scheme
    from ..frontend import FrontendConfig, FrontendSimulator
    from ..workloads import get_generator, get_trace

    if warmup is None:
        warmup = n_records // 3
    prefetcher, scheme_overrides = build_scheme(scheme)
    merged = {**scheme_overrides, **(config_overrides or {})}
    generator = get_generator(workload, scale=scale,
                              variable_length=variable_length)
    trace = get_trace(workload, n_records=n_records, scale=scale,
                      variable_length=variable_length)
    sim = FrontendSimulator(trace, config=FrontendConfig(**merged),
                            prefetcher=prefetcher,
                            program=generator.program)
    with JsonlTraceLog(out_path) as log:
        sim.event_log = log
        stats = sim.run(warmup=warmup)
        counts = dict(log.counts)
    return stats, counts


# -- request-scoped distributed tracing -------------------------------------

#: The propagation header: ``X-Repro-Trace: <trace_id>-<span_id>``.
TRACE_HEADER = "X-Repro-Trace"

_HEX = set("0123456789abcdef")

#: Sample-rate strings already warned about (one warning per value).
_warned_rates = set()


def _hash_id(*parts: str) -> str:
    """A 16-hex-char id from deterministic inputs only.

    Ids fold a seed (the job fingerprint) and a per-process counter —
    never a wall clock or RNG — so a replayed submission produces the
    same trace id and tests can assert exact linkage.
    """
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _env_sample_rate() -> float:
    raw = os.environ.get(ENV_TRACE_SAMPLE, "")
    if not raw:
        return 1.0
    try:
        rate = float(raw)
    except ValueError:
        if raw not in _warned_rates:
            _warned_rates.add(raw)
            warnings.warn(
                f"ignoring invalid {ENV_TRACE_SAMPLE}={raw!r} (want a "
                f"float in [0, 1]); sampling every trace",
                RuntimeWarning, stacklevel=3)
        return 1.0
    return min(1.0, max(0.0, rate))


class TraceContext:
    """Identity of the active span: ``(trace_id, span_id)``.

    Immutable and tiny — it crosses the HTTP boundary as the
    :data:`TRACE_HEADER` header and the process boundary inside
    ``run_many`` worker payloads.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "span_id", span_id)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("TraceContext is immutable")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TraceContext)
                and other.trace_id == self.trace_id
                and other.span_id == self.span_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, {self.span_id!r})"

    def to_header(self) -> str:
        return f"{self.trace_id}-{self.span_id}"

    @classmethod
    def from_header(cls, value: Optional[str]) -> Optional["TraceContext"]:
        """Parse the propagation header; None for absent/malformed.

        A malformed header is treated as "no trace" rather than an
        error: tracing must never fail a request it is observing.
        """
        if not value:
            return None
        parts = value.strip().split("-")
        if len(parts) != 2:
            return None
        trace_id, span_id = parts
        if not trace_id or not span_id or \
                not set(trace_id) <= _HEX or not set(span_id) <= _HEX:
            return None
        return cls(trace_id, span_id)


class Span:
    """One live span; becomes an immutable record when it finishes.

    ``attrs`` may be mutated while the span is open (the HTTP layer
    stamps the response status on exit); wall-clock times are recorded
    as span *data* only — identity is deterministic.
    """

    __slots__ = ("name", "context", "parent_id", "attrs",
                 "start_ts", "_t0")

    def __init__(self, name: str, context: TraceContext, parent_id: str,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.start_ts = time.time()
        self._t0 = time.perf_counter()

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id


class Tracer:
    """Deterministic-id span recorder with context propagation.

    The module-level :data:`TRACER` is the process-wide instance.  The
    *current* context rides a :class:`contextvars.ContextVar`, which is
    what carries it across ``asyncio.to_thread`` into the job executor
    threads for free; crossing a *process* boundary is explicit (the
    worker payload), and the worker's finished spans come back through
    :meth:`snapshot`/:meth:`merge` like profiler snapshots do.
    """

    def __init__(self, sample_rate: Optional[float] = None,
                 capacity: int = 8192):
        self._lock = Lock()
        self._counter = 0
        self._finished: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._current: "contextvars.ContextVar[Optional[TraceContext]]" = \
            contextvars.ContextVar("repro_trace_context", default=None)
        self.sample_rate = (_env_sample_rate() if sample_rate is None
                            else min(1.0, max(0.0, sample_rate)))

    # -- ids and sampling ----------------------------------------------

    def _next(self) -> int:
        with self._lock:
            self._counter += 1
            return self._counter

    def new_trace_id(self, seed: str) -> str:
        return _hash_id("trace", seed, str(self._next()))

    def new_span_id(self, trace_id: str, parent_id: str,
                    name: str) -> str:
        return _hash_id("span", trace_id, parent_id, name,
                        str(self._next()))

    def sampled(self, trace_id: str) -> bool:
        """Deterministic head sampling: a trace id either always records
        or never does, at every hop, without coordination."""
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return int(trace_id[:8], 16) / 0xFFFFFFFF < rate

    # -- context -------------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        return self._current.get()

    @contextmanager
    def attach(self, context: Optional[TraceContext]
               ) -> Iterator[Optional[TraceContext]]:
        """Make ``context`` current without opening a span (workers)."""
        token = self._current.set(context)
        try:
            yield context
        finally:
            self._current.reset(token)

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, parent: Optional[TraceContext] = None,
             attrs: Optional[Dict[str, Any]] = None,
             span_id: Optional[str] = None,
             seed: Optional[str] = None) -> Iterator[Optional[Span]]:
        """Open one span; yields None when the trace is unsampled.

        With no explicit ``parent`` the current context is used; with
        neither, a new *root* trace is started from ``seed`` (default:
        the span name) if the sampler admits it.  A propagated context
        is always honoured — the sampling decision belongs to the root.
        """
        context = parent if parent is not None else self._current.get()
        if context is None:
            if self.sample_rate <= 0.0:
                yield None
                return
            trace_id = self.new_trace_id(seed if seed is not None
                                         else name)
            if not self.sampled(trace_id):
                yield None
                return
            parent_id = ""
        else:
            trace_id, parent_id = context.trace_id, context.span_id
        sid = span_id if span_id is not None \
            else self.new_span_id(trace_id, parent_id, name)
        span = Span(name, TraceContext(trace_id, sid), parent_id, attrs)
        token = self._current.set(span.context)
        try:
            yield span
        finally:
            self._current.reset(token)
            self._finish(span, time.perf_counter() - span._t0)

    def record_span(self, name: str, parent: Optional[TraceContext],
                    duration_s: float, start_ts: Optional[float] = None,
                    attrs: Optional[Dict[str, Any]] = None
                    ) -> Optional[str]:
        """Record an externally measured child span (queue wait).

        Returns the new span id, or None when there is no parent to
        hang it off.
        """
        if parent is None:
            return None
        sid = self.new_span_id(parent.trace_id, parent.span_id, name)
        span = Span(name, TraceContext(parent.trace_id, sid),
                    parent.span_id, attrs)
        if start_ts is not None:
            span.start_ts = start_ts
        self._finish(span, duration_s)
        return sid

    def _finish(self, span: Span, duration_s: float) -> None:
        from .metrics import inc
        record: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "pid": os.getpid(),
            "start_ts": round(span.start_ts, 6),
            "duration_s": round(max(0.0, duration_s), 6),
        }
        if span.attrs:
            record["attrs"] = {str(k): v for k, v in span.attrs.items()}
        with self._lock:
            self._finished.append(record)
        inc("repro_spans_total", labels={"name": span.name})

    # -- buffered spans ------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every buffered finished span (worker -> parent transport)."""
        with self._lock:
            return [dict(record) for record in self._finished]

    def merge(self, spans: List[Dict[str, Any]]) -> None:
        """Fold a worker's :meth:`snapshot` into this tracer."""
        with self._lock:
            self._finished.extend(dict(record) for record in spans)

    def spans_for(self, trace_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(record) for record in self._finished
                    if record.get("trace_id") == trace_id]

    def reset(self) -> None:
        """Drop buffered spans and restart the id counter.

        Pool workers call this at task start (with
        ``REGISTRY.reset_values()``) so a reused worker process's
        snapshot covers exactly one task.
        """
        with self._lock:
            self._finished.clear()
            self._counter = 0

    # -- persistence ---------------------------------------------------

    def persist(self, trace_id: str,
                root: Optional[Path] = None) -> Optional[Path]:
        """Append a trace's buffered spans to its JSONL stream.

        The stream lives next to the job event streams —
        ``<cache root>/service/traces/<shard>/<trace_id>.jsonl`` —
        written with the same torn-write-safe appender.  Persisted
        spans leave the buffer, so repeated calls append only news.
        Best-effort: returns None (and keeps the buffer) when caching
        is disabled or the write fails.
        """
        from ..experiments import store as result_store
        if root is None:
            if not result_store.caching_enabled():
                return None
            root = result_store.cache_root() / "service" / "traces"
        spans = self.spans_for(trace_id)
        if not spans:
            return None
        path = trace_stream_path(trace_id, root)
        try:
            for record in spans:
                result_store.append_jsonl(path, record)
        except OSError:
            return None
        with self._lock:
            kept = [record for record in self._finished
                    if record.get("trace_id") != trace_id]
            self._finished.clear()
            self._finished.extend(kept)
        return path


def trace_stream_path(trace_id: str, root: Path) -> Path:
    """Where a trace's span stream lives (sharded like the store)."""
    shard = trace_id[:2] if len(trace_id) >= 2 else "00"
    return Path(root) / shard / f"{trace_id}.jsonl"


def read_trace_spans(trace_id: str,
                     root: Optional[Path] = None) -> List[Dict[str, Any]]:
    """Reconstruct one trace from its persisted span stream.

    Spans are deduplicated by span id (leader and follower jobs may
    both persist the shared subtree) and ordered by start time.
    """
    from ..experiments import store as result_store
    if root is None:
        root = result_store.cache_root() / "service" / "traces"
    path = trace_stream_path(trace_id, root)
    seen = set()
    spans: List[Dict[str, Any]] = []
    for record in result_store.iter_jsonl(path):
        span_id = record.get("span_id")
        if not span_id or span_id in seen:
            continue
        seen.add(span_id)
        spans.append(record)
    spans.sort(key=lambda r: (r.get("start_ts", 0.0), r.get("span_id")))
    return spans


#: Process-wide tracer, sampled from ``$REPRO_TRACE_SAMPLE`` at import.
TRACER = Tracer()

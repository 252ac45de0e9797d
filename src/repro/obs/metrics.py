"""Process-wide metrics registry: counters, gauges, histograms.

The service, the job queue, the persistent store and the engine all
report into one :class:`MetricsRegistry` (the module-level
:data:`REGISTRY`), exported as Prometheus text at ``GET /metricsz`` and
``repro stats --metrics``.  Three metric kinds:

* **counters** — monotonic totals (``inc``), optionally labelled;
* **gauges** — last-write-wins levels (``set_gauge``), typically fed by
  *collectors* — callbacks sampled right before every export (queue
  depth, store session counters);
* **histograms** — fixed log-spaced buckets (p50/p95/p99 are derived
  from the cumulative bucket counts, see :func:`quantile_from_buckets`)
  whose bucket lines carry OpenMetrics-style *exemplars*: the span/trace
  id of one observation that landed in the bucket, so a bad p99 bucket
  links to the exact trace (:mod:`repro.obs.tracing`).

Metric names are **string literals at every call site** — declaration
(``declare_counter(...)``) and observation (``inc``/``set_gauge``/
``observe``) alike — which is what lets lint's TEL003/TEL004 rules
check the declared/observed contract statically, the same way TEL001/
TEL002 police the event-kind registry.  At runtime the contract is
enforced the way :class:`~repro.frontend.eventlog.EventLog` enforces
kinds: observing an undeclared metric raises under ``__debug__`` and
degrades to an implicit declaration otherwise.

It is the one place where counts and durations add up: the runner's
cache hits, the pool's wall times and the persistent store's lifecycle
events are registry metrics too, so ``repro stats``, ``/metricsz`` and
pool workers all read and ship the same numbers.

Everything is guarded by one lock: the service observes from
``to_thread`` executor threads and the event loop concurrently.
Collectors run *outside* the lock (they may take other locks, e.g. the
store's counter lock).
"""

from __future__ import annotations

import math
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

#: Canonical labelset form: sorted ((key, value), ...) pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: One retained exemplar: (labels, observed value).
Exemplar = Tuple[Dict[str, str], float]

#: A collector samples external state into gauges before an export.
Collector = Callable[[], None]


def log_spaced_buckets(lo: float = 1e-3, hi: float = 100.0,
                       per_decade: int = 4) -> Tuple[float, ...]:
    """Fixed log-spaced histogram bucket upper bounds.

    The default — 1 ms to 100 s, four buckets per decade — brackets
    everything from a memo-hit job to a full bench matrix; fixed bounds
    (rather than adaptive ones) keep scrapes from different processes
    and times directly comparable.
    """
    if lo <= 0 or hi <= lo or per_decade < 1:
        raise ValueError(f"bad bucket range ({lo}, {hi}, {per_decade})")
    lo_e, hi_e = math.log10(lo), math.log10(hi)
    steps = int(round((hi_e - lo_e) * per_decade))
    return tuple(round(10.0 ** (lo_e + i / per_decade), 9)
                 for i in range(steps + 1))


DEFAULT_BUCKETS = log_spaced_buckets()


def _labelset(labels: Optional[Mapping[str, Any]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")


def _render_labels(labels: LabelSet, extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Common shape of one registered metric (internals lock-guarded)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text

    def header(self) -> List[str]:
        return [f"# HELP {self.name} {_escape(self.help)}",
                f"# TYPE {self.name} {self.kind}"]


class _Counter(_Metric):
    kind = "counter"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self.values: Dict[LabelSet, float] = {}

    def render(self) -> List[str]:
        lines = self.header()
        for labels in sorted(self.values):
            lines.append(f"{self.name}{_render_labels(labels)} "
                         f"{_format_value(self.values[labels])}")
        return lines


class _Gauge(_Counter):
    kind = "gauge"


class _Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs buckets")
        self.bounds = bounds
        #: labelset -> per-bucket counts (one extra slot for +Inf).
        self.counts: Dict[LabelSet, List[int]] = {}
        self.sums: Dict[LabelSet, float] = {}
        self.totals: Dict[LabelSet, int] = {}
        #: labelset -> bucket index -> last exemplar landing there.
        self.exemplars: Dict[LabelSet, Dict[int, Exemplar]] = {}

    def observe(self, value: float, labels: LabelSet,
                exemplar: Optional[Mapping[str, str]] = None) -> None:
        counts = self.counts.get(labels)
        if counts is None:
            counts = self.counts[labels] = [0] * (len(self.bounds) + 1)
            self.sums[labels] = 0.0
            self.totals[labels] = 0
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        counts[index] += 1
        self.sums[labels] += value
        self.totals[labels] += 1
        if exemplar:
            slots = self.exemplars.setdefault(labels, {})
            slots[index] = ({str(k): str(v) for k, v in exemplar.items()},
                            float(value))

    def render(self) -> List[str]:
        lines = self.header()
        for labels in sorted(self.counts):
            counts = self.counts[labels]
            slots = self.exemplars.get(labels, {})
            cumulative = 0
            for i, bound in enumerate(list(self.bounds) + [math.inf]):
                cumulative += counts[i]
                le = _render_labels(labels,
                                    extra=f'le="{_format_value(bound)}"')
                line = f"{self.name}_bucket{le} {cumulative}"
                if i in slots:
                    ex_labels, ex_value = slots[i]
                    ex = ",".join(f'{k}="{_escape(v)}"'
                                  for k, v in sorted(ex_labels.items()))
                    line += (f" # {{{ex}}} "
                             f"{_format_value(ex_value)}")
                lines.append(line)
            label_text = _render_labels(labels)
            lines.append(f"{self.name}_sum{label_text} "
                         f"{_format_value(self.sums[labels])}")
            lines.append(f"{self.name}_count{label_text} "
                         f"{self.totals[labels]}")
        return lines

    def quantile(self, q: float, labels: LabelSet = ()) -> Optional[float]:
        counts = self.counts.get(labels)
        if counts is None or self.totals.get(labels, 0) == 0:
            return None
        cumulative = 0
        pairs = []
        for i, bound in enumerate(self.bounds):
            cumulative += counts[i]
            pairs.append((bound, cumulative))
        pairs.append((math.inf, cumulative + counts[-1]))
        return quantile_from_buckets(pairs, q)


def quantile_from_buckets(pairs: Sequence[Tuple[float, float]],
                          q: float) -> Optional[float]:
    """Estimate a quantile from cumulative histogram buckets.

    ``pairs`` are ``(upper_bound, cumulative_count)`` rows, ascending
    (the shape of Prometheus ``_bucket`` lines).  Linear interpolation
    inside the landing bucket, which is the standard ``histogram_quantile``
    estimate; a quantile landing in the +Inf bucket reports the last
    finite bound (the histogram cannot resolve beyond its range).
    """
    if not pairs:
        return None
    total = pairs[-1][1]
    if total <= 0:
        return None
    rank = q * total
    prev_bound, prev_count = 0.0, 0.0
    last_finite = 0.0
    for bound, count in pairs:
        if bound != math.inf:
            last_finite = bound
        if count >= rank:
            if bound == math.inf:
                return last_finite if last_finite else prev_bound
            width = count - prev_count
            if width <= 0:
                return bound
            fraction = (rank - prev_count) / width
            return prev_bound + (bound - prev_bound) * fraction
        prev_bound, prev_count = (bound if bound != math.inf
                                  else prev_bound), count
    return last_finite


class MetricsRegistry:
    """One process's metric namespace (usually :data:`REGISTRY`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Collector] = []
        #: Collector exceptions swallowed by :meth:`collect`; drops are
        #: counted (best-effort, unguarded) rather than lost silently.
        self.collector_errors = 0

    # -- declaration ---------------------------------------------------

    def _declare(self, cls: Type[_Metric], name: str, help_text: str,
                 **kwargs: Any) -> _Metric:
        if not name.replace("_", "").replace(":", "").isalnum() \
                or name[0].isdigit():
            raise ValueError(f"bad metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already declared as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def declare_counter(self, name: str, help_text: str) -> None:
        """Register a monotonic counter (idempotent)."""
        self._declare(_Counter, name, help_text)

    def declare_gauge(self, name: str, help_text: str) -> None:
        """Register a last-write-wins gauge (idempotent)."""
        self._declare(_Gauge, name, help_text)

    def declare_histogram(self, name: str, help_text: str,
                          buckets: Optional[Sequence[float]] = None) -> None:
        """Register a fixed-bucket histogram (idempotent)."""
        self._declare(_Histogram, name, help_text,
                      buckets=tuple(buckets) if buckets is not None
                      else DEFAULT_BUCKETS)

    def _resolve(self, name: str, cls: Type[_Metric]) -> _Metric:
        """Lock held.  The declared metric, or the runtime fallback.

        Mirrors :class:`~repro.frontend.eventlog.EventLog` kind
        validation: an undeclared observation raises under ``__debug__``
        (tests and CI see it immediately) and degrades to an implicit
        declaration under ``-O`` — production observability must never
        crash the simulation it observes.
        """
        metric = self._metrics.get(name)  # repro: noqa[LCK001] -- callers hold _lock
        if metric is None:
            if __debug__:
                raise ValueError(
                    f"metric {name!r} observed but never declared; "
                    f"declare it in repro.obs.metrics (lint rule TEL003)")
            metric = cls(name, "(undeclared)")
            self._metrics[name] = metric  # repro: noqa[LCK001] -- callers hold _lock
        elif not isinstance(metric, cls) or \
                (cls is _Counter and type(metric) is not _Counter):
            raise ValueError(f"metric {name!r} is a {metric.kind}, "
                             f"observed as {cls.kind}")
        return metric

    # -- observation ---------------------------------------------------

    def inc(self, name: str, n: float = 1.0,
            labels: Optional[Mapping[str, Any]] = None) -> None:
        key = _labelset(labels)
        with self._lock:
            metric = self._resolve(name, _Counter)
            assert isinstance(metric, _Counter)
            metric.values[key] = metric.values.get(key, 0.0) + n

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Mapping[str, Any]] = None) -> None:
        key = _labelset(labels)
        with self._lock:
            metric = self._resolve(name, _Gauge)
            assert isinstance(metric, _Gauge)
            metric.values[key] = float(value)

    def observe(self, name: str, value: float,
                labels: Optional[Mapping[str, Any]] = None,
                exemplar: Optional[Mapping[str, str]] = None) -> None:
        key = _labelset(labels)
        with self._lock:
            metric = self._resolve(name, _Histogram)
            assert isinstance(metric, _Histogram)
            metric.observe(float(value), key, exemplar=exemplar)

    # -- collectors ----------------------------------------------------

    def add_collector(self, collector: Collector) -> Collector:
        """Register a pre-export sampler (queue depth, store counters)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)
        return collector

    def remove_collector(self, collector: Collector) -> None:
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    def collect(self) -> None:
        """Run every collector (outside the lock; errors swallowed)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:   # noqa: BLE001 - observers are best-effort
                self.collector_errors += 1

    # -- export --------------------------------------------------------

    def render(self) -> str:
        """The registry as Prometheus text exposition format."""
        self.collect()
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._metrics):
                lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"

    def quantiles(self, name: str, qs: Sequence[float],
                  labels: Optional[Mapping[str, Any]] = None
                  ) -> Dict[float, Optional[float]]:
        """Quantile estimates for one histogram (None when empty)."""
        key = _labelset(labels)
        with self._lock:
            metric = self._metrics.get(name)
            if not isinstance(metric, _Histogram):
                return {q: None for q in qs}
            return {q: metric.quantile(q, key) for q in qs}

    def values(self, name: str) -> Dict[LabelSet, float]:
        """One counter's or gauge's series (collectors are not run)."""
        with self._lock:
            metric = self._metrics.get(name)
            if not isinstance(metric, _Counter):
                return {}
            return dict(metric.values)

    def totals(self) -> Dict[str, float]:
        """Every counter series and histogram count and sum, keyed like
        their ``/metricsz`` lines (``name{k="v"}``, ``name_count``,
        ``name_sum``): the ``repro stats`` profile.  Gauges, which sample
        state rather than add up, are left out."""
        out: Dict[str, float] = {}
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if isinstance(metric, _Histogram):
                    for labels in sorted(metric.counts):
                        text = _render_labels(labels)
                        out[f"{name}_count{text}"] = metric.totals[labels]
                        out[f"{name}_sum{text}"] = metric.sums[labels]
                elif type(metric) is _Counter:
                    for labels in sorted(metric.values):
                        out[f"{name}{_render_labels(labels)}"] = \
                            metric.values[labels]
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable dump, also the :meth:`merge` input.

        Labelsets are encoded as lists of ``[key, value]`` pairs so the
        snapshot survives JSON and pickling across worker processes.
        """
        self.collect()
        out: Dict[str, Any] = {"counters": {}, "gauges": {},
                               "histograms": {}}
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if isinstance(metric, _Histogram):
                    out["histograms"][name] = {
                        "buckets": list(metric.bounds),
                        "series": [
                            {"labels": [list(kv) for kv in labels],
                             "counts": list(metric.counts[labels]),
                             "sum": metric.sums[labels],
                             "count": metric.totals[labels]}
                            for labels in sorted(metric.counts)],
                    }
                elif isinstance(metric, _Gauge):
                    out["gauges"][name] = [
                        {"labels": [list(kv) for kv in labels],
                         "value": metric.values[labels]}
                        for labels in sorted(metric.values)]
                elif isinstance(metric, _Counter):
                    out["counters"][name] = [
                        {"labels": [list(kv) for kv in labels],
                         "value": metric.values[labels]}
                        for labels in sorted(metric.values)]
        return out

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another process's :meth:`snapshot` into this registry.

        The parallel runner carries each pool worker's metrics back
        through here: counters and histogram buckets add.  Gauges never
        cross processes — they sample one process's state (its store
        session, the service queue) — so any in the snapshot are
        ignored.  Unknown names are folded in as implicitly declared —
        the worker ran the same code, so in practice they are always
        declared here too.
        """
        for name, series in snapshot.get("counters", {}).items():
            for row in series:
                self.inc(name, float(row.get("value", 0.0)),
                         labels=dict(tuple(kv) for kv in row["labels"]))
        for name, data in snapshot.get("histograms", {}).items():
            bounds = tuple(float(b) for b in data.get("buckets", ()))
            with self._lock:
                metric = self._resolve(name, _Histogram)
                assert isinstance(metric, _Histogram)
                if metric.bounds != bounds:
                    continue    # incompatible shape: drop, never corrupt
                for row in data.get("series", ()):
                    labels: LabelSet = tuple(
                        (str(k), str(v)) for k, v in row["labels"])
                    counts = metric.counts.get(labels)
                    if counts is None:
                        counts = metric.counts[labels] = \
                            [0] * (len(bounds) + 1)
                        metric.sums[labels] = 0.0
                        metric.totals[labels] = 0
                    for i, n in enumerate(row["counts"]):
                        counts[i] += int(n)
                    metric.sums[labels] += float(row.get("sum", 0.0))
                    metric.totals[labels] += int(row.get("count", 0))

    def reset_values(self) -> None:
        """Zero every series, keep declarations and collectors (tests)."""
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, _Histogram):
                    metric.counts.clear()
                    metric.sums.clear()
                    metric.totals.clear()
                    metric.exemplars.clear()
                elif isinstance(metric, _Counter):
                    metric.values.clear()


def parse_prometheus_text(text: str
                          ) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus text exposition into ``{series: [(labels, v)]}``.

    The inverse of :meth:`MetricsRegistry.render`, used by ``repro top``
    and the CI scrape assertions.  Exemplar suffixes (``# {...} v``) are
    stripped; comment and malformed lines are skipped, mirroring how
    :func:`~repro.experiments.store.iter_jsonl` tolerates torn lines.
    """
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " # " in line:
            line = line.split(" # ", 1)[0].rstrip()
        labels: Dict[str, str] = {}
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, _, value_text = rest.rpartition("}")
            for part in _split_labels(label_text):
                key, _, value = part.partition("=")
                labels[key.strip()] = value.strip().strip('"') \
                    .replace('\\"', '"').replace("\\\\", "\\")
        else:
            name, _, value_text = line.partition(" ")
        value_text = value_text.strip()
        try:
            value = (math.inf if value_text == "+Inf"
                     else float(value_text))
        except ValueError:
            continue
        out.setdefault(name.strip(), []).append((labels, value))
    return out


def _split_labels(text: str) -> List[str]:
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in text:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


#: The process-wide registry every subsystem reports into.
REGISTRY = MetricsRegistry()


# -- module-level convenience (the lintable call-site API) ------------------

def declare_counter(name: str, help_text: str) -> None:
    REGISTRY.declare_counter(name, help_text)


def declare_gauge(name: str, help_text: str) -> None:
    REGISTRY.declare_gauge(name, help_text)


def declare_histogram(name: str, help_text: str,
                      buckets: Optional[Sequence[float]] = None) -> None:
    REGISTRY.declare_histogram(name, help_text, buckets=buckets)


def inc(name: str, n: float = 1.0,
        labels: Optional[Mapping[str, Any]] = None) -> None:
    REGISTRY.inc(name, n, labels=labels)


def set_gauge(name: str, value: float,
              labels: Optional[Mapping[str, Any]] = None) -> None:
    REGISTRY.set_gauge(name, value, labels=labels)


def observe(name: str, value: float,
            labels: Optional[Mapping[str, Any]] = None,
            exemplar: Optional[Mapping[str, str]] = None) -> None:
    REGISTRY.observe(name, value, labels=labels, exemplar=exemplar)


def render_metrics() -> str:
    """The process registry as Prometheus text (``/metricsz``)."""
    return REGISTRY.render()


# -- the core catalogue -----------------------------------------------------
#
# Declared at import so every process exposes the same schema; each name
# here has a static observation site (lint rule TEL004 enforces it).

declare_counter("repro_http_requests_total",
                "HTTP requests answered by repro serve, by method/status")
declare_counter("repro_jobs_submitted_total", "jobs accepted into the queue")
declare_counter("repro_jobs_rejected_total",
                "submissions refused by queue backpressure (429)")
declare_counter("repro_jobs_completed_total", "jobs finished successfully")
declare_counter("repro_jobs_failed_total", "jobs that raised")
declare_counter("repro_jobs_cancelled_total", "jobs cancelled while queued")
declare_counter("repro_jobs_deduped_total",
                "jobs served by single-flight dedupe (awaited a leader)")
declare_counter("repro_runs_total", "engine simulations executed")
declare_counter("repro_records_simulated_total",
                "trace records fed through the engine")
declare_counter("repro_run_cache_hits_total",
                "run_scheme calls served without simulating, by cache "
                "layer (memo, store)")
declare_counter("repro_pool_broken_total",
                "run_many process pools that broke and fell back to serial")
declare_counter("repro_store_events_total",
                "persistent store lifecycle events, by kind "
                "(corrupt, evict, repoint)")
declare_counter("repro_store_listener_errors_total",
                "store event listener exceptions swallowed")
declare_counter("repro_spans_total", "trace spans finished, by span name")

declare_gauge("repro_job_queue_depth", "jobs waiting in the bounded queue")
declare_gauge("repro_jobs_running", "jobs currently executing")
declare_gauge("repro_jobs_inflight",
              "distinct fingerprints currently executing (dedupe groups)")
declare_gauge("repro_store_hits", "persistent store session hits")
declare_gauge("repro_store_misses", "persistent store session misses")
declare_gauge("repro_store_writes", "persistent store session writes")
declare_gauge("repro_store_corrupt",
              "persistent store entries that failed to parse")
declare_gauge("repro_store_evicted",
              "entries removed by the LRU byte budget this session")
declare_gauge("repro_store_migrated",
              "flat legacy entries moved into their shard this session")
declare_gauge("repro_store_invalidations",
              "entries removed by clear() this session")

declare_histogram("repro_job_latency_seconds",
                  "job wall time, submission to terminal state")
declare_histogram("repro_job_queue_wait_seconds",
                  "time a job spent queued before a worker picked it up")
declare_histogram("repro_run_seconds",
                  "engine wall time of one simulated (workload, scheme)")
declare_histogram("repro_run_trace_seconds",
                  "program and trace build (or load) of one simulated run")
declare_histogram("repro_pool_seconds",
                  "wall time of one run_many process pool")
declare_histogram("repro_pool_overhead_seconds",
                  "pool wall time not covered by parallel worker work: "
                  "spin-up, pickling, queue wait, idle workers")
declare_histogram("repro_pool_task_seconds",
                  "worker wall time of one pooled spec")


def _store_collector() -> None:
    """Sample the persistent store's session counters into gauges.

    Imported lazily for the same reason
    :func:`repro.experiments.store._notify` is: the store must not
    import its observers at module load.
    """
    from ..experiments import store as result_store
    st = result_store.get_store()
    if st is None:
        return
    counters = st.counters()
    set_gauge("repro_store_hits", counters["hits"])
    set_gauge("repro_store_misses", counters["misses"])
    set_gauge("repro_store_writes", counters["writes"])
    set_gauge("repro_store_corrupt", counters["corrupt"])
    set_gauge("repro_store_evicted", counters["evicted"])
    set_gauge("repro_store_migrated", counters["migrated"])
    set_gauge("repro_store_invalidations", counters["invalidations"])


REGISTRY.add_collector(_store_collector)

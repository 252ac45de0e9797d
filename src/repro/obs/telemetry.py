"""Per-component telemetry and event/counter reconciliation.

Three concerns live here:

* :class:`ComponentCounters` — attribution of prefetch outcomes to the
  *component* that issued them (``sn4l``, ``dis``, a baseline
  prefetcher's name, …).  The paper's argument is exactly this division:
  sequential, discontinuity and BTB misses are conquered by separate
  mechanisms, so coverage/accuracy/timeliness must be measurable per
  mechanism (the Fig. 6/9-style breakdowns).  Enabled with
  ``FrontendSimulator.enable_component_telemetry()``; costs nothing when
  off (``None`` checks on prefetch paths only).
* :func:`reconcile` — the invariant that telemetry can never drift from
  the statistics: for every counter in :data:`RECONCILED_COUNTERS`, the
  number of emitted events of the paired kind must equal the counter
  exactly.  CI's trace smoke job asserts this for every registered
  scheme.
* :func:`store_event` — the persistent store's lifecycle bus.  The
  store (:mod:`repro.experiments.store`) reports corrupt entries,
  evictions and singleton re-points here.  Each event is counted in the
  ``repro_store_events_total{kind}`` registry counter, so pool workers
  ship their events home with the rest of their metrics; listeners
  registered with :func:`add_store_listener` (tests) observe the
  events themselves without the store importing any consumer.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Mapping, Tuple

from .metrics import REGISTRY, inc

#: A store lifecycle listener: called as ``listener(kind, fields)``.
StoreListener = Callable[[str, Dict[str, Any]], None]

_STORE_LISTENERS: List[StoreListener] = []

#: Guards the listener list: the service publishes store events from
#: ``to_thread`` executor threads *and* the loop thread concurrently.
_BUS_LOCK = threading.Lock()


def add_store_listener(listener: StoreListener) -> StoreListener:
    """Register a callback for persistent-store lifecycle events."""
    with _BUS_LOCK:
        _STORE_LISTENERS.append(listener)
    return listener


def remove_store_listener(listener: StoreListener) -> None:
    """Unregister a listener (no-op if it was never added)."""
    with _BUS_LOCK:
        try:
            _STORE_LISTENERS.remove(listener)
        except ValueError:
            pass


def store_event_counts() -> Dict[str, int]:
    """Store events seen by this process and its pool workers, by kind."""
    series = REGISTRY.values("repro_store_events_total")
    return {dict(labels)["kind"]: int(count)
            for labels, count in sorted(series.items())}


def store_event(kind: str, **fields: Any) -> None:
    """Count one store lifecycle event and publish it to every listener.

    Listeners must never break the store: exceptions are swallowed
    (a cache layer failing because an observer crashed would invert
    the dependency the bus exists to avoid) and counted in
    ``repro_store_listener_errors_total``.  The listeners run outside
    the bus lock, so a slow observer cannot stall every other publisher.
    """
    inc("repro_store_events_total", labels={"kind": kind})
    with _BUS_LOCK:
        listeners = list(_STORE_LISTENERS)
    for listener in listeners:
        try:
            listener(kind, dict(fields))
        except Exception:       # noqa: BLE001 - observers are best-effort
            inc("repro_store_listener_errors_total")


#: event kind -> FrontendStats attribute that must match its count.
RECONCILED_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("demand_hit", "demand_hits"),
    ("demand_miss", "demand_misses"),
    ("demand_late", "demand_late_prefetch"),
    ("prefetch", "prefetches_issued"),
    ("btb_miss", "btb_misses"),
    ("btb_rescue", "btb_buffer_fills"),
    ("mispredict", "mispredicts"),
)


def reconcile(stats, counts: Mapping[str, int]) -> Dict[str, Tuple[int, int]]:
    """Compare event counts against the statistics counters.

    Returns ``{kind: (event_count, stats_count)}`` for every reconciled
    pair that disagrees — empty means telemetry and counters agree.
    """
    mismatches: Dict[str, Tuple[int, int]] = {}
    for kind, attr in RECONCILED_COUNTERS:
        emitted = int(counts.get(kind, 0))
        counted = int(getattr(stats, attr))
        if emitted != counted:
            mismatches[kind] = (emitted, counted)
    return mismatches


class ComponentCounters:
    """Prefetch outcome counters keyed by issuing component.

    The engine pops/pushes these on the same code paths that update
    :class:`~repro.frontend.stats.FrontendStats`, so per-source sums
    always equal the aggregate counters:

    ``sum(issued) == prefetches_issued``,
    ``sum(useful) == prefetches_useful`` *(for prefetch-credited
    useful events after telemetry was enabled)*, and so on.
    """

    def __init__(self):
        self.issued: Counter = Counter()
        self.useful: Counter = Counter()
        self.useless: Counter = Counter()
        self.late: Counter = Counter()
        self.covered_latency: Dict[str, float] = defaultdict(float)
        self.prefetched_latency: Dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        """Zero every counter (engine warmup reset)."""
        self.issued.clear()
        self.useful.clear()
        self.useless.clear()
        self.late.clear()
        self.covered_latency.clear()
        self.prefetched_latency.clear()

    # -- engine hooks --------------------------------------------------

    def on_issue(self, source: str) -> None:
        self.issued[source] += 1

    def on_useful(self, source: str, covered: float, full: float,
                  late: bool = False) -> None:
        self.useful[source] += 1
        if late:
            self.late[source] += 1
        self.covered_latency[source] += covered
        self.prefetched_latency[source] += full

    def on_useless(self, source: str) -> None:
        self.useless[source] += 1

    # -- derived metrics ----------------------------------------------

    def sources(self) -> List[str]:
        keys = (set(self.issued) | set(self.useful) | set(self.useless)
                | set(self.late))
        return sorted(keys)

    def accuracy(self, source: str) -> float:
        done = self.useful[source] + self.useless[source]
        return self.useful[source] / done if done else 0.0

    def timeliness(self, source: str) -> float:
        """Covered fraction of the fill latency (per-component CMAL)."""
        full = self.prefetched_latency[source]
        return self.covered_latency[source] / full if full else 0.0

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Machine-readable snapshot, one row per source."""
        return {
            src: {
                "issued": float(self.issued[src]),
                "useful": float(self.useful[src]),
                "useless": float(self.useless[src]),
                "late": float(self.late[src]),
                "accuracy": self.accuracy(src),
                "timeliness": self.timeliness(src),
                "covered_latency": self.covered_latency[src],
                "prefetched_latency": self.prefetched_latency[src],
            }
            for src in self.sources()
        }

    def render(self) -> str:
        """Human-readable per-component table."""
        lines = [f"{'component':14s} {'issued':>8s} {'useful':>8s} "
                 f"{'useless':>8s} {'late':>6s} {'accuracy':>9s} "
                 f"{'cmal':>7s}"]
        for src in self.sources():
            name = src or "(untagged)"
            lines.append(
                f"{name:14s} {self.issued[src]:>8d} {self.useful[src]:>8d} "
                f"{self.useless[src]:>8d} {self.late[src]:>6d} "
                f"{self.accuracy(src):>9.1%} {self.timeliness(src):>7.1%}")
        return "\n".join(lines)


def component_report(workload: str, scheme: str, n_records: int = 20_000,
                     warmup: int = None, scale: float = 1.0,
                     variable_length: bool = False):
    """Run one (workload, scheme) pair with component telemetry enabled.

    Returns ``(stats, ComponentCounters)``.  This always simulates (a
    cached result has no component attribution), mirroring the
    construction :func:`repro.experiments.runner.run_scheme` uses so the
    aggregate counters are identical to a cached run of the same
    parameters, and counts the run in the registry as it does.
    """
    from ..experiments.runner import build_scheme, count_run
    from ..frontend import FrontendConfig, FrontendSimulator
    from ..workloads import get_generator, get_trace

    if warmup is None:
        warmup = n_records // 3
    prefetcher, overrides = build_scheme(scheme)
    generator = get_generator(workload, scale=scale,
                              variable_length=variable_length)
    trace = get_trace(workload, n_records=n_records, scale=scale,
                      variable_length=variable_length)
    sim = FrontendSimulator(trace, config=FrontendConfig(**overrides),
                            prefetcher=prefetcher,
                            program=generator.program)
    counters = sim.enable_component_telemetry()
    start = time.perf_counter()
    stats = sim.run(warmup=warmup)
    count_run(n_records, time.perf_counter() - start)
    return stats, counters

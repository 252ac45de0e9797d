"""Experiment runner: named schemes, cached (workload x scheme) runs.

Every figure/table driver goes through :func:`run_scheme`, which memoises
results so that e.g. the baseline run of a workload is shared by every
figure that normalises against it.

Two cache layers sit under :func:`run_scheme`:

* a bounded in-process memo (``_CACHE``) holding slim
  :class:`RunResult`\\ s — stats and scalar observables only, no live
  simulator, unless the caller opted into ``keep_simulator=True``;
* the persistent on-disk store (:mod:`repro.experiments.store`), keyed
  by a content fingerprint, which lets fresh processes (CLI runs, CI,
  parallel workers) skip simulation entirely.
"""

from __future__ import annotations

import importlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from . import store as result_store
from ..obs.metrics import inc, observe
from ..obs.tracing import TRACER

if TYPE_CHECKING:
    from ..frontend import FrontendSimulator, FrontendStats

#: Default measurement window, mirroring the paper's warm-then-measure
#: sampling (Section VI-C).
DEFAULT_RECORDS = 150_000
DEFAULT_WARMUP = 50_000


@dataclass
class RunResult:
    """One simulation run plus scheme-side observables.

    ``prefetcher`` and ``simulator`` are populated only for
    ``run_scheme(..., keep_simulator=True)`` callers; the default result
    is slim (stats + ``extra`` scalars) so it pickles cheaply across
    worker processes and does not pin simulator state in the cache.
    """

    workload: str
    scheme: str
    stats: FrontendStats
    prefetcher: object = None
    simulator: FrontendSimulator = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles


#: A registered scheme: the import path of its prefetcher's constructor
#: (None for no prefetcher), the constructor's keyword arguments and the
#: scheme's ``FrontendConfig`` overrides.  Every field is a literal, so
#: naming a scheme imports nothing and the REG lint rules check each
#: entry from the source.
SchemeEntry = Tuple[Optional[str], Dict[str, Any], Dict[str, Any]]

SCHEMES: Dict[str, SchemeEntry] = {
    "baseline": (None, {}, {}),
    "nl": ("repro.prefetchers.nextline.NextXLinePrefetcher",
           {"depth": 1}, {}),
    "n2l": ("repro.prefetchers.nextline.NextXLinePrefetcher",
            {"depth": 2}, {}),
    "n4l": ("repro.prefetchers.nextline.NextXLinePrefetcher",
            {"depth": 4}, {}),
    "n8l": ("repro.prefetchers.nextline.NextXLinePrefetcher",
            {"depth": 8}, {}),
    "nl_buf": ("repro.prefetchers.nextline.NextXLinePrefetcher",
               {"depth": 1, "use_buffer": True}, {}),
    "n2l_buf": ("repro.prefetchers.nextline.NextXLinePrefetcher",
                {"depth": 2, "use_buffer": True}, {}),
    "n4l_buf": ("repro.prefetchers.nextline.NextXLinePrefetcher",
                {"depth": 4, "use_buffer": True}, {}),
    "n8l_buf": ("repro.prefetchers.nextline.NextXLinePrefetcher",
                {"depth": 8, "use_buffer": True}, {}),
    "sn4l": ("repro.core.sn4l.Sn4lPrefetcher", {}, {}),
    "dis": ("repro.core.proactive.dis_only", {}, {}),
    "sn4l_dis": ("repro.core.proactive.sn4l_dis", {}, {}),
    "sn4l_dis_btb": ("repro.core.proactive.sn4l_dis_btb", {}, {}),
    "discontinuity": (
        "repro.prefetchers.discontinuity."
        "ConventionalDiscontinuityPrefetcher", {}, {}),
    "nlmiss": ("repro.prefetchers.nextline.NextLineOnMissPrefetcher",
               {}, {}),
    "adaptive_nxl": ("repro.prefetchers.adaptive.AdaptiveNxlPrefetcher",
                     {}, {}),
    "nltagged": ("repro.prefetchers.nextline.NextLineTaggedPrefetcher",
                 {}, {}),
    "tifs": ("repro.prefetchers.temporal.TifsPrefetcher", {}, {}),
    "pif": ("repro.prefetchers.temporal.PifPrefetcher", {}, {}),
    "rdip": ("repro.prefetchers.rdip.RdipPrefetcher", {}, {}),
    "fdip": ("repro.prefetchers.fdip.FdipPrefetcher", {}, {}),
    "confluence": ("repro.prefetchers.confluence.ConfluencePrefetcher",
                   {}, {}),
    "boomerang": ("repro.prefetchers.boomerang.BoomerangPrefetcher",
                  {}, {}),
    "shotgun": ("repro.prefetchers.shotgun.ShotgunPrefetcher", {}, {}),
    "perfect_l1i": (None, {}, {"perfect_l1i": True}),
    "perfect_l1i_btb": (None, {}, {"perfect_l1i": True,
                                   "perfect_btb": True}),
}


def scheme_names() -> Tuple[str, ...]:
    return tuple(SCHEMES)


def build_scheme(name: str):
    """``(prefetcher or None, FrontendConfig overrides)`` for a
    registered scheme.  The constructor's module is imported the first
    time a scheme uses it."""
    try:
        path, kwargs, overrides = SCHEMES[name]
    except KeyError:
        known = ", ".join(SCHEMES)
        raise KeyError(f"unknown scheme {name!r}; known: {known}") from None
    prefetcher = None
    if path is not None:
        module, _, attr = path.rpartition(".")
        prefetcher = getattr(importlib.import_module(module), attr)(**kwargs)
    return prefetcher, dict(overrides)


def load_simulator() -> None:
    """Import every module a simulation runs.

    A run the store serves needs none of them, so :func:`run_scheme`
    calls this only once it misses both its memo and the store.  A
    process pool calls it before it forks, so its workers inherit the
    modules and a fork never lands while another thread (a served job)
    is midway through one of these imports: the worker would inherit a
    half-loaded module and an import lock no thread of its own holds.
    ``repro serve`` calls it at start-up, before its job workers exist.
    ``numpy.random`` is here because numpy loads it on first use, at a
    program build's first seeded draw.
    """
    import numpy.random  # noqa: F401
    from .. import core, prefetchers  # noqa: F401  (scheme constructors)
    from ..frontend import config, engine  # noqa: F401
    from ..workloads import serialize, tracegen  # noqa: F401


#: Bounded LRU memo of slim results (heavier ``keep_simulator`` results
#: share the same bound, which is what keeps live simulators from
#: accumulating — the pre-bound cache pinned every one forever).
_CACHE: "OrderedDict[Tuple, RunResult]" = OrderedDict()
_CACHE_MAX = 256


def _fingerprint(workload: str, scheme: str, n_records: int, warmup: int,
                 scale: float, variable_length: bool,
                 overrides: Dict, cache_key_extra: Optional[str]) -> str:
    """Content fingerprint of one run for the persistent store."""
    from ..workloads import get_profile
    return result_store.fingerprint({
        "kind": "run_scheme",
        "profile": get_profile(workload),
        "scheme": scheme,
        "n_records": n_records,
        "warmup": warmup,
        "scale": scale,
        "variable_length": variable_length,
        "overrides": overrides,
        "cache_key_extra": cache_key_extra,
    })


def _build_manifest(fp: str, workload: str, scheme: str, n_records: int,
                    warmup: int, scale: float, variable_length: bool,
                    overrides: Dict, cache_key_extra: Optional[str],
                    duration_s: float, stats, extra: Dict) -> Dict:
    """Machine-readable record of one run, written next to its result."""
    return {
        "fingerprint": fp,
        "workload": workload,
        "scheme": scheme,
        "n_records": n_records,
        "warmup": warmup,
        "scale": scale,
        "variable_length": variable_length,
        "config_overrides": dict(overrides),
        "cache_key_extra": cache_key_extra,
        "duration_s": round(duration_s, 4),
        "written_at": time.time(),
        "code_salt": result_store.code_salt(),
        "store_version": result_store.STORE_VERSION,
        "summary": stats.summary(),
        "extra": dict(extra),
    }


def _memoise(key: Tuple, result: RunResult) -> None:
    _CACHE[key] = result
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)


def seed_cache(key: Tuple, result: RunResult) -> None:
    """Install an externally computed result (parallel workers)."""
    _memoise(key, result)


def cache_key(workload: str, scheme: str,
              n_records: int = DEFAULT_RECORDS,
              warmup: Optional[int] = None,
              scale: float = 1.0,
              variable_length: bool = False,
              config_overrides: Optional[Dict] = None,
              cache_key_extra: Optional[str] = None) -> Tuple:
    """The memo key :func:`run_scheme` uses for these arguments."""
    if warmup is None:
        warmup = n_records // 3
    overrides = dict(config_overrides or {})
    return (workload, scheme, n_records, warmup, scale, variable_length,
            tuple(sorted(overrides.items())), cache_key_extra)


def count_run(n_records: int, seconds: float,
              exemplar: Optional[Dict[str, str]] = None) -> None:
    """Count one simulation in the registry: a run, its records and its
    duration (every caller that simulates, so ``repro stats`` sees it)."""
    inc("repro_runs_total")
    inc("repro_records_simulated_total", float(n_records))
    observe("repro_run_seconds", seconds, exemplar=exemplar)


def run_scheme(workload: str, scheme: str,
               n_records: int = DEFAULT_RECORDS,
               warmup: Optional[int] = None,
               scale: float = 1.0,
               variable_length: bool = False,
               config_overrides: Optional[Dict] = None,
               prefetcher_factory: Optional[Callable] = None,
               cache_key_extra: Optional[str] = None,
               use_cache: bool = True,
               keep_simulator: bool = False,
               persistent: Optional[bool] = None) -> RunResult:
    """Run one (workload, scheme) pair and return the result.

    ``prefetcher_factory`` overrides the registered factory (used by
    sweeps that vary a scheme parameter); pass ``cache_key_extra`` to
    keep such variants distinct in the cache.

    ``warmup=None`` warms on the first third of the trace (which equals
    :data:`DEFAULT_WARMUP` at the default trace length).

    ``keep_simulator=True`` returns (and memoises) the live
    :class:`FrontendSimulator`/prefetcher pair for callers that inspect
    scheme-side state; the default result is slim.  ``persistent``
    controls the on-disk store (None = honour ``REPRO_CACHE_DISABLE``).
    """
    if warmup is None:
        warmup = n_records // 3
    overrides = dict(config_overrides or {})
    key = (workload, scheme, n_records, warmup, scale, variable_length,
           tuple(sorted(overrides.items())), cache_key_extra)
    if use_cache and key in _CACHE:
        cached = _CACHE[key]
        if cached.simulator is not None or not keep_simulator:
            _CACHE.move_to_end(key)
            inc("repro_run_cache_hits_total", labels={"layer": "memo"})
            return cached

    # Persistent layer.  Factory-built variants are only fingerprintable
    # when the caller tagged them (the factory itself cannot be hashed).
    store = None
    fp = None
    if persistent is not False and use_cache and \
            (prefetcher_factory is None or cache_key_extra is not None):
        store = result_store.get_store() if persistent is None \
            else result_store.ResultStore()
        if store is not None:
            fp = _fingerprint(workload, scheme, n_records, warmup, scale,
                              variable_length, overrides, cache_key_extra)
            if not keep_simulator:
                loaded = store.load_result(fp)
                if loaded is not None:
                    stats, extra = loaded
                    result = RunResult(workload=workload, scheme=scheme,
                                       stats=stats, extra=extra)
                    _memoise(key, result)
                    inc("repro_run_cache_hits_total",
                        labels={"layer": "store"})
                    return result

    load_simulator()
    from ..frontend.config import FrontendConfig
    from ..frontend.engine import FrontendSimulator
    from ..workloads.tracegen import get_generator, get_trace

    if prefetcher_factory is not None:
        prefetcher, scheme_overrides = prefetcher_factory(), {}
        if isinstance(prefetcher, tuple):
            prefetcher, scheme_overrides = prefetcher
    else:
        prefetcher, scheme_overrides = build_scheme(scheme)
    merged = {**scheme_overrides, **overrides}

    trace_start = time.perf_counter()
    generator = get_generator(workload, scale=scale,
                              variable_length=variable_length)
    trace = get_trace(workload, n_records=n_records, scale=scale,
                      variable_length=variable_length)
    observe("repro_run_trace_seconds", time.perf_counter() - trace_start)
    config = FrontendConfig(**merged)
    sim = FrontendSimulator(trace, config=config, prefetcher=prefetcher,
                            program=generator.program)
    sim_start = time.perf_counter()
    # The innermost span of a service trace (client -> http -> queue ->
    # worker -> engine); standalone CLI runs start their own root here.
    with TRACER.span("engine.run_scheme",
                     seed=f"{workload}|{scheme}|{n_records}|{scale}",
                     attrs={"workload": workload,
                            "scheme": scheme}) as eng_span:
        stats = sim.run(warmup=warmup)
    sim_elapsed = time.perf_counter() - sim_start
    count_run(n_records, sim_elapsed,
              exemplar=({"trace_id": eng_span.trace_id,
                         "span_id": eng_span.span_id}
                        if eng_span is not None else None))

    result = RunResult(workload=workload, scheme=scheme, stats=stats)
    result.extra["llc_avg_latency"] = sim.latency.average_latency
    result.extra["external_requests"] = float(sim.latency.requests)
    if hasattr(prefetcher, "footprint_miss_ratio"):
        result.extra["footprint_miss_ratio"] = prefetcher.footprint_miss_ratio
    if store is not None and fp is not None:
        try:
            store.save_result(fp, stats, result.extra)
            store.save_manifest(fp, _build_manifest(
                fp, workload, scheme, n_records, warmup, scale,
                variable_length, overrides, cache_key_extra,
                sim_elapsed, stats, result.extra))
        except OSError:
            pass        # read-only cache dir: persistence is best-effort
    if keep_simulator:
        result.prefetcher = prefetcher
        result.simulator = sim
    if use_cache:
        _memoise(key, result)
    return result


def clear_cache() -> None:
    _CACHE.clear()

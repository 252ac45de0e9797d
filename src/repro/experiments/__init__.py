"""Experiment harness: scheme registry, cached runner, figure drivers."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from . import export, figures, store
    from .parallel import (
        map_parallel,
        parse_count,
        resolve_jobs,
        run_many,
        set_default_jobs,
    )
    from .report import (
        render_matrix,
        render_per_scheme,
        render_per_workload,
        render_storage,
        render_sweep,
    )
    from .runner import (
        DEFAULT_RECORDS,
        DEFAULT_WARMUP,
        SCHEMES,
        RunResult,
        build_scheme,
        clear_cache,
        load_simulator,
        run_scheme,
        scheme_names,
    )
    from .sampling import (
        SampledMetric,
        SampledRun,
        render_sampled,
        run_sampled,
    )
    from .store import ResultStore, caching_enabled, get_store, reset_store

__all__ = [
    "figures",
    "export",
    "store",
    "run_many",
    "map_parallel",
    "parse_count",
    "resolve_jobs",
    "set_default_jobs",
    "ResultStore",
    "get_store",
    "reset_store",
    "caching_enabled",
    "run_scheme",
    "build_scheme",
    "scheme_names",
    "load_simulator",
    "RunResult",
    "SCHEMES",
    "DEFAULT_RECORDS",
    "DEFAULT_WARMUP",
    "clear_cache",
    "render_per_workload",
    "render_per_scheme",
    "render_matrix",
    "render_sweep",
    "render_storage",
    "run_sampled",
    "render_sampled",
    "SampledRun",
    "SampledMetric",
]

__getattr__ = lazy_exports(__name__, {
    ".": ("export", "figures", "store"),
    ".parallel": ("map_parallel", "parse_count", "resolve_jobs", "run_many",
                  "set_default_jobs"),
    ".report": ("render_matrix", "render_per_scheme", "render_per_workload",
                "render_storage", "render_sweep"),
    ".runner": ("DEFAULT_RECORDS", "DEFAULT_WARMUP", "SCHEMES", "RunResult",
                "build_scheme", "clear_cache", "load_simulator",
                "run_scheme", "scheme_names"),
    ".sampling": ("SampledMetric", "SampledRun", "render_sampled",
                  "run_sampled"),
    ".store": ("ResultStore", "caching_enabled", "get_store",
               "reset_store"),
})

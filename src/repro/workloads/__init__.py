"""Synthetic server workloads: profiles, trace records, and trace generation."""

from .profiles import (
    ALL_PROFILES,
    DISPLAY_NAMES,
    MEDIA_STREAMING,
    OLTP_DB_A,
    OLTP_DB_B,
    PROFILES_BY_NAME,
    WEB_APACHE,
    WEB_FRONTEND,
    WEB_SEARCH,
    WEB_ZEUS,
    WalkParams,
    WorkloadProfile,
    get_profile,
    workload_names,
)
from .serialize import load_trace, save_trace
from .soa import EngineView, engine_view
from .trace import NO_ADDR, FetchRecord, Trace, mark_sequential
from .tracegen import TraceGenerator, clear_cache, get_generator, get_trace

__all__ = [
    "WorkloadProfile",
    "WalkParams",
    "ALL_PROFILES",
    "PROFILES_BY_NAME",
    "DISPLAY_NAMES",
    "MEDIA_STREAMING",
    "OLTP_DB_A",
    "OLTP_DB_B",
    "WEB_APACHE",
    "WEB_ZEUS",
    "WEB_FRONTEND",
    "WEB_SEARCH",
    "workload_names",
    "get_profile",
    "FetchRecord",
    "Trace",
    "NO_ADDR",
    "mark_sequential",
    "TraceGenerator",
    "get_generator",
    "get_trace",
    "clear_cache",
    "save_trace",
    "load_trace",
    "EngineView",
    "engine_view",
]

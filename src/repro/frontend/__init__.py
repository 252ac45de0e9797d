"""Trace-driven frontend simulator: fetch engine, BTB/RAS, predictor, stats."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .branch_predictor import BimodalTable, DirectionPredictor
    from .config import FrontendConfig
    from .engine import HIT, LATE, MISS, FrontendSimulator, simulate
    from .l1pb import L1PrefetchBuffer
    from .stats import FrontendStats
    from .tage import TagePredictor

__all__ = [
    "FrontendConfig",
    "FrontendSimulator",
    "FrontendStats",
    "simulate",
    "HIT",
    "MISS",
    "LATE",
    "DirectionPredictor",
    "TagePredictor",
    "BimodalTable",
    "L1PrefetchBuffer",
]

__getattr__ = lazy_exports(__name__, {
    ".branch_predictor": ("BimodalTable", "DirectionPredictor"),
    ".config": ("FrontendConfig",),
    ".engine": ("HIT", "LATE", "MISS", "FrontendSimulator", "simulate"),
    ".l1pb": ("L1PrefetchBuffer",),
    ".stats": ("FrontendStats",),
    ".tage": ("TagePredictor",),
})

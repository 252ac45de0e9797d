"""Engine throughput microbenchmark: records simulated per second.

Times the frontend engine's hot path before and after this round of
optimisation, on the same trace, across the full figure-16 scheme
matrix (no-prefetcher baseline plus the SN4L / SN4L+Dis / full
composite) and Shotgun, the BTB-directed baseline it is compared
against:

* **legacy** — the pre-optimisation engine: generic per-record stepping
  (``run(fast=False)``) over a latency config that recomputes the NoC
  mesh average on every fill request, exactly as the code did before the
  round-trip memoisation landed;
* **current** — the default path: ``run()`` runs the vectorized
  region-stepping loop, with or without a prefetcher.

Both must produce bit-identical statistics (modulo the
``extra["engine_path"]`` label, which *names* the loop and therefore
legitimately differs); the test asserts that, then writes its
measurements — including which engine path produced each number —
under the ``engine_microbench`` key of ``BENCH_throughput.json`` at the
repo root.  The file is shared with ``repro bench --view``, which owns
the ``matrix`` section, so each writer merges around the other's keys.
Note the compiled prefetcher hot path (``repro.core.proactive``) serves
*both* loops, so "legacy" here measures today's generic loop, not the
pre-vectorization seed — the headline 5x-vs-seed figure lives in
``docs/performance.md``.  The gates are therefore modest floors that
catch a broken batched path, not the full historical speedup.
"""

import json
import time
from dataclasses import asdict
from pathlib import Path

from conftest import BENCH_RECORDS

from repro.experiments.runner import build_scheme
from repro.frontend import FrontendConfig, FrontendSimulator
from repro.memory.latency import LatencyConfig, LatencyModel
from repro.workloads import get_generator, get_trace

WORKLOAD = "web_apache"
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: (scheme, expected current engine path, minimum current/legacy speedup)
MATRIX = (
    ("baseline", "vectorized", 1.5),
    ("sn4l", "vectorized", 1.15),
    ("sn4l_dis", "vectorized", 1.15),
    ("sn4l_dis_btb", "vectorized", 1.1),
    ("shotgun", "vectorized", 1.2),
)


class _UncachedLatencyConfig(LatencyConfig):
    """Pre-optimisation latency config: round trips recomputed per call."""

    @property
    def llc_round_trip(self) -> int:
        return int(round(self.noc.average_round_trip(self.core_tile))) \
            + self.llc_access

    @property
    def memory_round_trip(self) -> int:
        return self.llc_round_trip + self.memory_access


def _comparable(stats) -> dict:
    """Stats dict with the engine-path label masked out.

    The label records *which loop* produced the numbers — the one field
    that must differ between the legacy and current measurements.
    """
    d = asdict(stats)
    d["extra"] = {k: v for k, v in d["extra"].items()
                  if k != "engine_path"}
    return d


def _simulate(scheme: str, legacy: bool):
    gen = get_generator(WORKLOAD)
    trace = get_trace(WORKLOAD, n_records=BENCH_RECORDS)
    prefetcher, overrides = build_scheme(scheme)
    latency = LatencyModel(_UncachedLatencyConfig()) if legacy else None
    sim = FrontendSimulator(trace, config=FrontendConfig(**overrides),
                            prefetcher=prefetcher, program=gen.program,
                            latency=latency)
    start = time.perf_counter()
    stats = sim.run(warmup=BENCH_RECORDS // 3, fast=not legacy)
    elapsed = time.perf_counter() - start
    return stats, BENCH_RECORDS / elapsed, sim.engine_path


def _measure(scheme: str, legacy: bool, reps: int = 3):
    """Best-of-``reps`` records/sec (first rep's stats; all identical)."""
    stats, best, path = _simulate(scheme, legacy)
    for _ in range(reps - 1):
        _, rps, _ = _simulate(scheme, legacy)
        best = max(best, rps)
    return stats, best, path


def test_throughput_and_report():
    report = {"workload": WORKLOAD, "records": BENCH_RECORDS,
              "schemes": {}}
    for scheme, want_path, min_speedup in MATRIX:
        legacy_stats, legacy_rps, legacy_path = _measure(scheme, legacy=True)
        current_stats, current_rps, current_path = _measure(scheme,
                                                            legacy=False)
        assert legacy_path == "generic", (scheme, legacy_path)
        assert current_path == want_path, (scheme, current_path)
        # The optimised path must not change a single counter.
        assert _comparable(current_stats) == _comparable(legacy_stats), \
            scheme
        speedup = current_rps / legacy_rps
        report["schemes"][scheme] = {
            "legacy_records_per_sec": round(legacy_rps, 1),
            "legacy_engine_path": legacy_path,
            "current_records_per_sec": round(current_rps, 1),
            "current_engine_path": current_path,
            "speedup": round(speedup, 3),
        }
        print(f"{scheme}: {legacy_rps:,.0f} [{legacy_path}] -> "
              f"{current_rps:,.0f} [{current_path}] rec/s "
              f"({speedup:.2f}x)")
        assert speedup >= min_speedup, (scheme, speedup)
    merged = {}
    if OUT_PATH.exists():
        try:
            merged = json.loads(OUT_PATH.read_text())
        except (ValueError, OSError):
            merged = {}
    if not isinstance(merged, dict) or "schemes" in merged:
        merged = {}            # pre-merge format: this report owned it all
    merged["engine_microbench"] = report
    OUT_PATH.write_text(json.dumps(merged, indent=2) + "\n")

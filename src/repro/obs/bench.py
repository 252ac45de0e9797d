"""Benchmark matrix runner with an append-only JSONL history.

``repro bench`` runs a declared benchmark matrix — (workload, scheme,
jobs) cells at a fixed trace length — and records, per cell:

* **wall-clock** per repetition and derived **records/sec**;
* a **behaviour digest** (the deterministic engine counters: cycles,
  misses, prefetches, …) so a run that got *faster by computing the
  wrong thing* is caught as loudly as a slowdown;
* **cache-hit counters and the engine path** (persistent-store session
  counters, and the engine loop that ran: ``vectorized`` or
  ``generic``);
* the run's **content fingerprint** (same scheme as the result store,
  code salt included) and the current **git revision**.

Each measured cell is appended as one JSON line to
``$REPRO_CACHE_DIR/bench/history.jsonl``.  The history is the source of
truth; ``BENCH_throughput.json`` at the repo root is a *derived view*
regenerated from it (:func:`write_view`), and the regression gate
(:mod:`repro.obs.regress`) compares a fresh run against the latest
stored baseline for the same cell.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..experiments import store as result_store

#: Schema version of one history line.
HISTORY_VERSION = 1

_GIT_REV: Optional[str] = None

#: Monotonic token keeping pool-throughput runs distinct within one
#: process (each must simulate, never hit the memo of a previous rep).
_POOL_TOKEN = 0


def git_rev() -> str:
    """Short git revision of the working tree ("unknown" outside git)."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True, text=True, timeout=10)
            _GIT_REV = proc.stdout.strip() if proc.returncode == 0 \
                and proc.stdout.strip() else "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = "unknown"
    return _GIT_REV


@dataclass(frozen=True)
class BenchCell:
    """One benchmark matrix point: a (workload, scheme, jobs) cell.

    ``jobs == 1`` times repeated serial simulations of the cell (engine
    throughput).  ``jobs > 1`` times a ``run_many`` fan-out of ``jobs``
    independent copies of the cell per repetition (pool throughput,
    including spawn/pickling overhead — the parallel-runner analogue).
    """

    workload: str
    scheme: str
    n_records: int = 30_000
    scale: float = 1.0
    jobs: int = 1

    def key(self) -> str:
        """Stable identity of the cell across revisions."""
        return (f"{self.workload}/{self.scheme}"
                f"@{self.n_records}x{self.scale:g}j{self.jobs}")


#: Counters that form the behaviour digest.  All integers, all exactly
#: reproducible: two runs of the same code on the same cell must match
#: bit for bit, and a mismatch across revisions is a behaviour change.
DIGEST_COUNTERS: Tuple[str, ...] = (
    "delivery_cycles", "icache_stall_cycles", "btb_stall_cycles",
    "mispredict_stall_cycles", "backend_cycles",
    "instructions", "demand_accesses", "demand_hits", "demand_misses",
    "demand_late_prefetch", "prefetches_issued", "prefetches_useful",
    "prefetches_useless", "btb_misses", "btb_buffer_fills", "mispredicts",
)


def _digest(stats) -> Dict[str, int]:
    return {name: int(getattr(stats, name)) for name in DIGEST_COUNTERS}


#: Named matrices.  "small" is the CI gate (cheap, two schemes); the
#: default covers three workloads crossed with the proactive SN4L / Dis
#: / BTB build-up; "full" adds the remaining workloads, the strongest
#: baseline competitor and a pool-throughput cell.
_DEFAULT_WORKLOADS = ("web_apache", "oltp_db_a", "web_search")
_DEFAULT_SCHEMES = ("baseline", "sn4l", "sn4l_dis", "sn4l_dis_btb")

MATRICES: Dict[str, Tuple[BenchCell, ...]] = {
    "small": (
        BenchCell("web_apache", "baseline", n_records=9_000, scale=0.5),
        BenchCell("web_apache", "sn4l_dis_btb", n_records=9_000, scale=0.5),
    ),
    "default": tuple(
        BenchCell(w, s) for w in _DEFAULT_WORKLOADS
        for s in _DEFAULT_SCHEMES),
    "full": tuple(
        BenchCell(w, s) for w in
        ("media_streaming", "oltp_db_a", "oltp_db_b", "web_apache",
         "web_zeus", "web_frontend", "web_search")
        for s in _DEFAULT_SCHEMES + ("shotgun",)
    ) + (
        BenchCell("web_apache", "sn4l_dis_btb", jobs=4),
    ),
}


def matrix_names() -> Tuple[str, ...]:
    return tuple(MATRICES)


def resolve_matrix(name: str, n_records: Optional[int] = None,
                   scale: Optional[float] = None) -> Tuple[BenchCell, ...]:
    """A named matrix, optionally overriding every cell's size knobs."""
    try:
        cells = MATRICES[name]
    except KeyError:
        known = ", ".join(MATRICES)
        raise KeyError(f"unknown matrix {name!r}; known: {known}") from None
    if n_records is None and scale is None:
        return cells
    return tuple(
        BenchCell(c.workload, c.scheme,
                  n_records=n_records if n_records is not None
                  else c.n_records,
                  scale=scale if scale is not None else c.scale,
                  jobs=c.jobs)
        for c in cells)


def _cell_fingerprint(cell: BenchCell) -> str:
    """Content fingerprint of a cell (code salt included via the store)."""
    from ..workloads import get_profile
    return result_store.fingerprint({
        "kind": "bench",
        "profile": get_profile(cell.workload),
        "scheme": cell.scheme,
        "n_records": cell.n_records,
        "scale": cell.scale,
        "jobs": cell.jobs,
    })


def _run_serial_cell(cell: BenchCell, repeats: int
                     ) -> Tuple[List[float], Dict[str, int], Dict[str, Any]]:
    """Time ``repeats`` fresh simulations of one cell.

    The trace is built (or loaded from the store) once, outside the
    timed region, so wall-clock measures the engine, not trace
    generation.  A fresh prefetcher per repetition keeps every rep
    independent; the deterministic engine makes every rep's counters
    identical, which is asserted.
    """
    from ..experiments.runner import build_scheme
    from ..frontend import FrontendConfig, FrontendSimulator
    from ..workloads import get_generator, get_trace

    generator = get_generator(cell.workload, scale=cell.scale)
    trace = get_trace(cell.workload, n_records=cell.n_records,
                      scale=cell.scale)
    warmup = cell.n_records // 3
    wall: List[float] = []
    digest: Optional[Dict[str, int]] = None
    flags: Dict[str, Any] = {}
    for _ in range(repeats):
        prefetcher, overrides = build_scheme(cell.scheme)
        sim = FrontendSimulator(trace, config=FrontendConfig(**overrides),
                                prefetcher=prefetcher,
                                program=generator.program)
        start = time.perf_counter()
        stats = sim.run(warmup=warmup)
        wall.append(time.perf_counter() - start)
        flags["engine_path"] = sim.engine_path
        d = _digest(stats)
        if digest is None:
            digest = d
        elif digest != d:               # pragma: no cover - engine bug
            raise AssertionError(
                f"non-deterministic benchmark cell {cell.key()}: "
                f"{digest} != {d}")
    return wall, digest, flags


def _run_pool_cell(cell: BenchCell, repeats: int
                   ) -> Tuple[List[float], Dict[str, int], Dict[str, Any]]:
    """Time ``repeats`` pool fan-outs of ``cell.jobs`` independent runs.

    Measures the parallel runner end to end (spawn, pickling, worker
    simulation, result merge).  Caching is disabled per run so every
    repetition does real work; ``cache_key_extra`` keeps the copies
    distinct through ``run_many``'s dedup.
    """
    from ..experiments.parallel import run_many
    from ..workloads import get_trace

    # Warm the trace cache outside the timed region (shared by workers).
    get_trace(cell.workload, n_records=cell.n_records, scale=cell.scale)
    wall: List[float] = []
    digest: Optional[Dict[str, int]] = None
    flags: Dict[str, Any] = {}
    for rep in range(repeats):
        global _POOL_TOKEN
        _POOL_TOKEN += 1
        # Unique cache_key_extra per copy defeats run_many's dedup and
        # the memo, so every worker does real work; the pool then seeds
        # the in-process memo, which is what lets run_many's trailing
        # serial pass return without re-simulating.  persistent=False
        # keeps these throwaway runs out of the on-disk store.
        specs = [(cell.workload, cell.scheme,
                  {"cache_key_extra": f"bench-pool-{_POOL_TOKEN}-{i}"})
                 for i in range(cell.jobs)]
        start = time.perf_counter()
        results = run_many(specs, jobs=cell.jobs,
                           n_records=cell.n_records, scale=cell.scale,
                           persistent=False)
        wall.append(time.perf_counter() - start)
        flags["engine_path"] = results[0].stats.extra.get("engine_path")
        d = _digest(results[0].stats)
        if digest is None:
            digest = d
        elif digest != d:               # pragma: no cover - engine bug
            raise AssertionError(
                f"non-deterministic benchmark cell {cell.key()}")
    return wall, digest, flags


def run_cell(cell: BenchCell, repeats: int = 3) -> Dict[str, Any]:
    """Measure one cell; returns the history record (not yet appended)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    store = result_store.get_store()
    counters_before = dict(store.counters()) if store is not None else {}
    if cell.jobs > 1:
        wall, digest, flags = _run_pool_cell(cell, repeats)
        effective_records = cell.n_records * cell.jobs
    else:
        wall, digest, flags = _run_serial_cell(cell, repeats)
        effective_records = cell.n_records
    rps = [effective_records / w for w in wall]
    cache_counters = {}
    if store is not None:
        after = store.counters()
        cache_counters = {k: after[k] - counters_before.get(k, 0)
                          for k in after}
    return {
        "version": HISTORY_VERSION,
        "written_at": time.time(),
        "git_rev": git_rev(),
        "code_salt": result_store.code_salt(),
        "fingerprint": _cell_fingerprint(cell),
        "cell": cell.key(),
        "workload": cell.workload,
        "scheme": cell.scheme,
        "n_records": cell.n_records,
        "scale": cell.scale,
        "jobs": cell.jobs,
        "repeats": repeats,
        "wall_s": [round(w, 6) for w in wall],
        "records_per_sec": [round(r, 1) for r in rps],
        "mean_records_per_sec": round(sum(rps) / len(rps), 1),
        "digest": digest,
        "counters": {**flags, "store": cache_counters},
    }


def run_matrix(cells: Iterable[BenchCell], repeats: int = 3,
               progress=None) -> List[Dict[str, Any]]:
    """Measure every cell serially (parallel timing would self-perturb)."""
    records = []
    for cell in cells:
        record = run_cell(cell, repeats=repeats)
        if progress is not None:
            progress(record)
        records.append(record)
    return records


# -- history ---------------------------------------------------------------

def history_path() -> Path:
    return result_store.bench_history_path()


def load_history(path: Optional[Path] = None) -> List[Dict[str, Any]]:
    """Every readable history record, in append (chronological) order."""
    return list(result_store.iter_jsonl(path or history_path()))


def append_history(record: Dict[str, Any],
                   path: Optional[Path] = None) -> Path:
    return result_store.append_jsonl(path or history_path(), record)


def latest_baseline(history: Sequence[Dict[str, Any]],
                    record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The most recent stored entry for the same cell, if any.

    Matched on the cell key (workload/scheme/records/scale/jobs), *not*
    on the code salt or git rev — the gate's job is exactly to compare
    the current code against what was measured before it.
    """
    cell = record.get("cell")
    for entry in reversed(history):
        if entry.get("cell") == cell:
            return entry
    return None


# -- derived view ----------------------------------------------------------

def derive_view(history: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``BENCH_throughput.json`` matrix section: latest entry per cell."""
    latest: Dict[str, Dict[str, Any]] = {}
    for entry in history:                # later entries win
        if entry.get("cell"):
            latest[entry["cell"]] = entry
    matrix: Dict[str, Dict[str, Any]] = {}
    for entry in latest.values():
        row = matrix.setdefault(entry["workload"], {})
        scheme_key = entry["scheme"] if entry.get("jobs", 1) == 1 \
            else f"{entry['scheme']}(x{entry['jobs']} jobs)"
        digest = entry.get("digest") or {}
        total_cycles = sum(digest.get(c, 0) for c in
                           ("delivery_cycles", "icache_stall_cycles",
                            "btb_stall_cycles", "mispredict_stall_cycles",
                            "backend_cycles"))
        row[scheme_key] = {
            "records_per_sec": entry["mean_records_per_sec"],
            "n_records": entry["n_records"],
            "scale": entry["scale"],
            "repeats": entry["repeats"],
            "ipc": round(digest.get("instructions", 0) / total_cycles, 4)
            if total_cycles else None,
            "git_rev": entry.get("git_rev", "unknown"),
        }
    return matrix


def write_view(history: Sequence[Dict[str, Any]], path) -> Path:
    """Regenerate the derived throughput view, preserving foreign keys.

    ``BENCH_throughput.json`` has two writers: the engine microbenchmark
    (``benchmarks/test_perf_throughput.py``, the ``engine_microbench``
    section) and this function (the ``matrix`` section).  Each preserves
    the other's section, so the file is always the union of the latest
    measurements.
    """
    path = Path(path)
    existing: Dict[str, Any] = {}
    try:
        loaded = json.loads(path.read_text())
        if isinstance(loaded, dict):
            existing = loaded
    except (OSError, ValueError):
        pass
    view = {
        "version": 2,
        "generated_by": "repro bench",
        "git_rev": git_rev(),
        "written_at": time.time(),
        "matrix": derive_view(history),
    }
    if "engine_microbench" in existing:
        view["engine_microbench"] = existing["engine_microbench"]
    path.write_text(json.dumps(view, indent=2, sort_keys=True) + "\n")
    return path


def render_records(records: Sequence[Dict[str, Any]]) -> str:
    """Human-readable measurement table, one row per cell."""
    lines = [f"{'workload':16s} {'scheme':22s} {'records':>8s} "
             f"{'reps':>5s} {'rec/s':>10s} {'wall':>8s}"]
    for r in records:
        scheme = r["scheme"] if r.get("jobs", 1) == 1 \
            else f"{r['scheme']} (x{r['jobs']} jobs)"
        lines.append(
            f"{r['workload']:16s} {scheme:22s} {r['n_records']:>8d} "
            f"{r['repeats']:>5d} {r['mean_records_per_sec']:>10,.0f} "
            f"{min(r['wall_s']):>7.2f}s")
    return "\n".join(lines)

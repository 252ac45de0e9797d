"""``figure_cold``: the first render of a figure after a code change.

A code change alters the store's code salt, so the first ``repro
figure`` afterwards starts from an empty store.  A fresh interpreter
renders Fig. 16 (``fig16_speedup``: baseline plus four schemes) at
20 000 records with ``jobs=2`` from an empty store, over
``web_frontend``, one mid-size and one large workload picked by the
seed (``web_apache`` and ``oltp_db_a`` for seed 0; see :data:`MID`).  Fresh interpreters
then re-render it serially from the store the first render wrote.

Engine time is a minority here: each pool worker builds every program
(6 builds and 20.6 s of CPU inside a 16 s render when this workload was
designed), so program build, pool spin-up, trace saving and store
writes dominate, and an engine change that moves work into per-process
set-up shows here.  The re-render (~0.4 s: imports plus 15 store hits)
is the only path that reads the store from a fresh process.

End-to-end metrics: ``work_s`` is the normalised time of the cold
render and ``op_ms`` the normalised median time of a re-render.
Measured spread over 6 fresh runs when this workload was designed,
(max-min)/median raw -> normalised: cold render 36% -> 8%, re-render
50% -> 15%.

Set-up starts five fresh interpreters that import the figure driver
(warming the import path so the timed render reads no cold files);
``setup_s`` is their median.  The warm-ups and re-renders use one CPU
at a time, so they run pinned beside one probe and are normalised by
it; the pooled cold render runs unpinned and is normalised by every
probe.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import Normaliser, PassResult, launcher, spawn, wait
from hostspeed import Probes

#: Mid-size and large programs the seed picks from.  Each group holds
#: programs of similar build cost and memory (a render's pool workers
#: peaked at 214-220 MB with either mid-size program), so the seed moves
#: the inputs and not the expected render time.  Left out: web_search
#: (235 MB), oltp_db_b (builds in half the time) and media_streaming
#: (about twice the instructions of oltp_db_a: 161 vs 136 MB for one
#: process simulating it), each of which would make work_s or
#: peak_rss_mb move with the seed.
MID = ("web_apache", "web_zeus")
LARGE = ("oltp_db_a",)
RECORDS = 20_000
JOBS = 2
#: Import warm-ups per run (~0.3 s each): ``setup_s`` is their median.
SETUPS = 5
#: Re-renders are ~0.3 s each and their times drift with the host within
#: a run, so ``op_ms`` is a median over at least this many.
MIN_RERENDERS = 16
#: ``--tiny`` smoke-test inputs: records and number of workloads.
TINY = (2_000, 2)
TIMEOUT_S = 170.0


def pick_workloads(seed: int) -> List[str]:
    return ["web_frontend", MID[seed % len(MID)],
            LARGE[(seed // len(MID)) % len(LARGE)]]


def _launch(command: List[str], cache: Path, trace_dir: Optional[Path],
            run_id: str, cpu: Optional[int] = None
            ) -> Tuple[float, float, int]:
    t0 = time.monotonic()
    proc = spawn(launcher(command, trace_dir, run_id, cpu), cache)
    wait(proc, TIMEOUT_S)
    return t0, time.monotonic(), proc.returncode


def _render(workloads: List[str], records: int, jobs: int, cache: Path,
            out: Path, trace_dir: Optional[Path], run_id: str,
            cpu: Optional[int] = None
            ) -> Tuple[float, float, int, Optional[Dict[str, Any]]]:
    t0, t1, rc = _launch(["figure", "--workloads", ",".join(workloads),
                          "--records", str(records), "--jobs", str(jobs),
                          "--out", str(out)], cache, trace_dir, run_id, cpu)
    values = None
    if rc == 0:
        try:
            values = json.loads(out.read_text())
        except (OSError, ValueError):
            values = None
    return t0, t1, rc, values


def run_pass(seed: int, seconds: float, work: Path, probes: Probes,
             pinned: Optional[Dict[str, Any]],
             trace_dir: Optional[Path] = None,
             setups: int = SETUPS, tiny: bool = False) -> PassResult:
    res = PassResult()
    workloads = pick_workloads(seed)
    records, min_rerenders = RECORDS, MIN_RERENDERS
    if tiny:
        records, n_workloads = TINY
        workloads, min_rerenders = workloads[:n_workloads], 1
    run_id = f"figure_cold-{seed}"
    # The single-process steps (import warm-ups, serial re-renders) run
    # pinned beside one probe; the pooled cold render runs unpinned.
    pin = probes.cpus[-1]
    start = time.monotonic()

    setup_intervals = []
    for _ in range(setups):
        t0, t1, rc = _launch(["warm"], work / "cache-warm", trace_dir,
                             run_id, pin)
        setup_intervals.append((t0, t1))
        res.attempted += 1
        if rc != 0:
            res.failures.append(f"import warm-up exited {rc}")

    cache = work / "cache"
    renders = []
    cold = _render(workloads, records, JOBS, cache, work / "cold.json",
                   trace_dir, run_id)
    renders.append(cold)
    rerenders = []
    while len(rerenders) < min_rerenders or \
            time.monotonic() < cold[0] + seconds:
        rerenders.append(_render(workloads, records, 1, cache,
                                 work / "warm.json", trace_dir, run_id, pin))
    renders += rerenders
    res.window = (start, time.monotonic())

    expected = cold[3]
    if None not in (pinned, expected) and expected != pinned:
        res.failures.append("cold render differs from the pinned Fig. 16 "
                            "values")
    for i, (_, _, rc, values) in enumerate(renders):
        res.attempted += 1
        if rc != 0:
            res.failures.append(f"render {i} exited {rc}")
        elif values is None or values != expected:
            res.failures.append(f"render {i} values differ from the cold "
                                f"render's")

    norm = Normaliser(probes)
    setup_n = [norm.seconds(t0, t1, pin) for t0, t1 in setup_intervals]
    rer_n = [norm.seconds(r[0], r[1], pin) for r in rerenders]
    res.metrics["setup_s"] = (statistics.median(setup_n), statistics.median(
        [t1 - t0 for t0, t1 in setup_intervals]), "s")
    res.metrics["work_s"] = (norm.seconds(cold[0], cold[1]),
                             cold[1] - cold[0], "s")
    res.metrics["op_ms"] = (1e3 * statistics.median(rer_n),
                            1e3 * statistics.median(
                                [r[1] - r[0] for r in rerenders]), "ms")
    res.op_samples = len(rerenders)
    return res

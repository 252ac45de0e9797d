"""``engine_hot`` worker: hot engine throughput in one pinned process.

Run by ``run.py`` in a fresh interpreter pinned to one CPU, beside a
host-speed probe pinned to the same CPU::

    python3 perfbench/engine_hot.py --seed 0 --seconds 10 --cpu 1 \\
        --work DIR [--setups 3] [--trace-dir DIR]

Set-up builds the two programs, their traces
(``get_trace(w, n_records=45_000, sample=seed)``) and, by constructing
one simulator per (workload, scheme) pair, the predecode and
compiled-hook memos.  It runs ``--setups`` times, each from cleared
memos and an empty store, so ``setup_s`` is a median.  The timed phase
then repeats ``FrontendSimulator.run(warmup=15_000)`` over every pair
for ``--seconds``, and a last ``run(fast=False)`` per pair checks the
generic loop.  Timestamps are CLOCK_MONOTONIC, which the probe shares;
the worker writes raw intervals and digests to ``DIR/engine_hot.json``
and :func:`run_pass` normalises and checks them.

End-to-end metrics: ``work_s`` is the normalised time of one sweep,
every (workload, scheme) pair simulated once (the sum of the pairs'
median run times), so prefetcher-hook changes show in it; ``op_ms`` is
the normalised median time of one ``baseline`` simulation (averaged
over the two programs), the engine loop without a prefetcher.  The
traced run adds each scheme's rate (``engine.rec_per_s.<scheme>``).

Why this workload: the engine does all the timed work, so engine-loop
and prefetcher-hook changes show here at full size and elsewhere only
in part.  The lazy costs sit in ``setup_s``: the first ``sn4l_dis_btb``
run in a process is ~3.5x slower (22k vs 78k records/s) because it pays
the predecode prewarm.  Measured spread of per-scheme throughput over 6
fresh runs when this workload was designed, (max-min)/median raw ->
normalised: ``sn4l_dis_btb`` 25% -> 4%, ``shotgun`` 22% -> 10%,
``baseline`` 33% -> 17% (from 1.4 s of timed baseline per run, which
is why baseline repeats within a round).  A probe on the other CPU
only halved the engine spread (35% -> 19%); one on the same CPU cut it
about six-fold (25% -> 4%), hence the pinning.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import (Any, Callable, ContextManager, Dict, List, Optional,
                    Sequence, Tuple)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import Normaliser, PassResult, spawn, wait  # noqa: E402

WORKLOADS = ("web_apache", "oltp_db_a")
SCHEMES = ("baseline", "sn4l_dis_btb", "shotgun")
RECORDS = 45_000
WARMUP = 15_000
#: ``--tiny`` inputs for the benchmark's own smoke test: (records,
#: warm-up, program scale).
TINY = (3_000, 1_000, 0.1)
#: Timed runs per pair and round.  A baseline simulation takes ~0.2 s,
#: a fifth of the others, so it runs four times per round to add up
#: enough timed baseline work in a run (1.4 s of it gave a 17%
#: normalised spread when this workload was designed).
REPEATS = {"baseline": 4, "sn4l_dis_btb": 1, "shotgun": 1}
MIN_ROUNDS = 2
#: Set-ups per run (each ~11 s): ``setup_s`` is their median.
SETUPS = 2


class Inputs:
    """The set-up's products: each workload's program and trace."""

    def __init__(self, seed: int, records: int, scale: float):
        from repro.experiments.runner import build_scheme
        from repro.frontend import FrontendConfig, FrontendSimulator
        from repro.workloads import get_generator, get_trace

        self.built: Dict[str, Any] = {}
        for workload in WORKLOADS:
            program = get_generator(workload, scale=scale).program
            trace = get_trace(workload, n_records=records, scale=scale,
                              sample=seed)
            # Constructing a simulator attaches its prefetcher, which
            # fills the program's predecode memo and compiles the hooks.
            for scheme in SCHEMES:
                prefetcher, overrides = build_scheme(scheme)
                FrontendSimulator(trace, config=FrontendConfig(**overrides),
                                  prefetcher=prefetcher, program=program)
            self.built[workload] = (program, trace)

    def simulator(self, workload: str, scheme: str):
        from repro.experiments.runner import build_scheme
        from repro.frontend import FrontendConfig, FrontendSimulator

        program, trace = self.built[workload]
        prefetcher, overrides = build_scheme(scheme)
        return FrontendSimulator(trace, config=FrontendConfig(**overrides),
                                 prefetcher=prefetcher, program=program)


def _digest(stats) -> Dict[str, int]:
    from repro.obs.bench import DIGEST_COUNTERS
    return {name: int(getattr(stats, name)) for name in DIGEST_COUNTERS}


def run(seed: int, seconds: float, work: Path, setups: int, records: int,
        warmup: int, scale: float,
        label: Callable[[str], ContextManager] = lambda scheme:
        contextlib.nullcontext()) -> Dict[str, Any]:
    """Set up, time and check; returns the report ``run_pass`` reads."""
    from repro.workloads import clear_cache

    setup_intervals: List[List[float]] = []
    for i in range(setups):
        # Each set-up starts from cleared memos and an empty store.
        inputs = None
        clear_cache()
        os.environ["REPRO_CACHE_DIR"] = str(work / f"cache-setup{i}")
        gc.collect()
        t0 = time.monotonic()
        inputs = Inputs(seed, records, scale)
        setup_intervals.append([t0, time.monotonic()])

    pairs = [(w, s) for w in WORKLOADS for s in SCHEMES for _ in
             range(REPEATS[s])]
    reps: List[Dict[str, Any]] = []
    deadline = time.monotonic() + seconds
    done = 0
    # Whole rounds first, then pair blocks until the time is up.
    while done < MIN_ROUNDS * len(pairs) or time.monotonic() < deadline:
        workload, scheme = pairs[done % len(pairs)]
        sim = inputs.simulator(workload, scheme)
        with label(scheme):
            t0 = time.monotonic()
            stats = sim.run(warmup=warmup)
            t1 = time.monotonic()
        reps.append({"workload": workload, "scheme": scheme,
                     "round": done // len(pairs), "t0": t0, "t1": t1,
                     "records": records, "digest": _digest(stats)})
        done += 1

    checks = []
    for workload in WORKLOADS:
        for scheme in SCHEMES:
            sim = inputs.simulator(workload, scheme)
            with label(scheme):
                stats = sim.run(warmup=warmup, fast=False)
            checks.append({"workload": workload, "scheme": scheme,
                           "digest": _digest(stats)})
    return {"setups": setup_intervals, "reps": reps, "checks": checks}


def check(report: Dict[str, Any], pinned: Optional[Dict[str, Any]]
          ) -> Tuple[int, List[str]]:
    """Compare every repetition and generic-loop check with its pair's
    digest: the pinned one when given, else the pair's first repetition.
    Returns ``(attempted, failures)``."""
    reference: Dict[str, Dict[str, int]] = dict(pinned or {})
    failures = []
    runs = report["reps"] + report["checks"]
    for i, rep in enumerate(runs):
        pair = f"{rep['workload']}/{rep['scheme']}"
        expected = reference.setdefault(pair, rep["digest"])
        if rep["digest"] != expected:
            what = "generic-loop check" if i >= len(report["reps"]) \
                else "repetition"
            failures.append(f"{pair} {what}: behaviour digest differs")
    return len(runs), failures


def run_pass(seed: int, seconds: float, work: Path, probes,
             pinned: Optional[Dict[str, Any]],
             trace_dir: Optional[Path] = None, setups: int = SETUPS,
             tiny: bool = False) -> PassResult:
    """Run the worker pinned to the probe's CPU and turn its report into
    normalised metrics."""
    res = PassResult()
    start = time.monotonic()
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--seed", str(seed), "--seconds", str(seconds),
            "--cpu", str(probes.cpus[0]), "--work", str(work),
            "--setups", str(setups)]
    if tiny:
        argv += ["--tiny"]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    proc = spawn(argv, work / "cache")
    wait(proc, 170.0)
    res.window = (start, time.monotonic())
    res.attempted += 1
    if proc.returncode != 0:
        res.failures.append(f"engine_hot worker exited {proc.returncode}")
        return res
    report = json.loads((work / "engine_hot.json").read_text())
    attempted, failures = check(report, pinned)
    res.attempted += attempted
    res.failures += failures

    norm = Normaliser(probes)
    res.metrics["setup_s"] = (
        statistics.median(norm.seconds(a, b) for a, b in report["setups"]),
        statistics.median(b - a for a, b in report["setups"]), "s")
    # (normalised, raw) median seconds of one run of each pair.
    secs: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for workload in WORKLOADS:
        for scheme in SCHEMES:
            # A pair's runs within a round are back to back; their block
            # is normalised as one interval, which covers enough probe
            # samples even for the ~0.2 s baseline runs.
            blocks: Dict[int, List[Dict[str, Any]]] = {}
            for r in report["reps"]:
                if (r["workload"], r["scheme"]) == (workload, scheme):
                    blocks.setdefault(r["round"], []).append(r)
            raw = [statistics.fmean(r["t1"] - r["t0"] for r in block)
                   for block in blocks.values()]
            normed = [t * norm.speed(block[0]["t0"], block[-1]["t1"])
                      for t, block in zip(raw, blocks.values())]
            secs[workload, scheme] = (statistics.median(normed),
                                      statistics.median(raw))
    res.metrics["work_s"] = (sum(n for n, _ in secs.values()),
                             sum(r for _, r in secs.values()), "s")
    baseline = [secs[w, "baseline"] for w in WORKLOADS]
    res.metrics["op_ms"] = (1e3 * statistics.fmean(n for n, _ in baseline),
                            1e3 * statistics.fmean(r for _, r in baseline),
                            "ms")
    res.op_samples = sum(1 for r in report["reps"]
                         if r["scheme"] == "baseline")
    return res


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setups", type=int, default=SETUPS)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the smoke test")
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    records, warmup, scale = TINY if args.tiny else (RECORDS, WARMUP, 1.0)
    if args.trace_dir is None:
        report = run(args.seed, args.seconds, args.work, args.setups,
                     records, warmup, scale)
    else:
        import spans
        recorder = spans.install(args.trace_dir, f"engine_hot-{args.seed}")
        try:
            report = run(args.seed, args.seconds, args.work, args.setups,
                         records, warmup, scale, label=spans.scheme_label)
        finally:
            recorder.dump()
    (args.work / "engine_hot.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

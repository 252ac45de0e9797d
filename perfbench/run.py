"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload engine_hot --seed 0 --seconds 10 \\
        --trace 0

Workloads (see each module's docstring for why it was chosen and the
noise measured on it):

* ``engine_hot`` (:mod:`engine_hot`): hot engine throughput;
* ``figure_cold`` (:mod:`figure_cold`): the first render of Fig. 16
  after a code change, then re-renders from its store;
* ``served_mix`` (:mod:`served_mix`): hits and misses served by
  ``repro serve`` to two closed-loop clients.

Not workloads, on purpose: ``repro lint`` reads the repository's own
source tree, which every change edits, so its time would move with the
diff rather than with the linter; no open item targets ``repro
multicore`` or ``repro sample``.

The program runs with its defaults: the only setting is a fresh
``REPRO_CACHE_DIR`` per run (every other ``REPRO_*`` variable is
removed).  The seed makes the inputs; the program sees only them.
Every workload prints the same end-to-end metrics (:data:`END_TO_END`):
its set-up time, its peak memory, the time of its headline task
(``work_s``) and the median time of its short repeated operation
(``op_ms``); each workload's docstring says what those are there.
Every host-time metric is normalised to a reference host speed by the
probe in :mod:`hostspeed`.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced
(:mod:`spans`) and prints the per-layer metrics, the probe's readings,
the raw value of every normalised metric and the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import engine_hot
import figure_cold
import served_mix
import spans
from common import HERE, ROOT, Normaliser
from hostspeed import Probes

WORKLOADS = {"engine_hot": engine_hot, "figure_cold": figure_cold,
             "served_mix": served_mix}

#: The seed whose outputs are pinned in ``pinned.json``.
DEFAULT_SEED = 0

#: End-to-end metrics, the same on every workload: (name, unit, better).
#: ``work_s`` is the workload's headline task and ``op_ms`` its short
#: repeated operation (see each workload's docstring).
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_s", "s", "lower"),
    ("op_ms", "ms", "lower"),
]

Metrics = Dict[str, Tuple[float, str]]


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it
    waited for (Linux reports kilobytes)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _pinned(workload: str, seed: int) -> Optional[Any]:
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads((HERE / "pinned.json").read_text())
    return pinned.get(workload)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, pinned: Optional[Any] = None, tiny: bool = False
            ) -> Tuple[Metrics, int, List[str]]:
    """Run one workload; returns ``(metrics, attempted, failures)``."""
    module = WORKLOADS[workload]
    cpus = sorted(os.sched_getaffinity(0))
    # engine_hot is one single-threaded process, pinned beside its
    # probe.  The others run a probe per CPU: their single-CPU processes
    # (re-renders, the server) are pinned beside the last CPU's probe
    # and the pooled cold render is normalised by every probe.
    probe_cpus = cpus[-1:] if workload == "engine_hot" else cpus
    (work / "untraced").mkdir(parents=True)
    with Probes(probe_cpus, work) as probes:
        base = module.run_pass(seed, seconds, work / "untraced", probes,
                               pinned, tiny=tiny)
        traced = None
        if trace:
            trace_dir = work / "spans"
            trace_dir.mkdir()
            (work / "traced").mkdir()
            # served_mix's clients run in this process.
            recorder = spans.install(trace_dir, f"{workload}-{seed}") \
                if workload == "served_mix" else None
            try:
                traced = module.run_pass(seed, seconds, work / "traced",
                                         probes, pinned,
                                         trace_dir=trace_dir, setups=1,
                                         tiny=tiny)
            finally:
                if recorder is not None:
                    recorder.dump()
        norm = Normaliser(probes)

    attempted = base.attempted
    failures = list(base.failures)
    if traced is None:
        metrics: Metrics = {name: (value, unit) for name, (value, _, unit)
                            in base.metrics.items()}
        metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        return metrics, attempted, failures

    attempted += traced.attempted
    failures += traced.failures
    metrics = dict(spans.layer_metrics(spans.load_spans(work / "spans")))
    metrics["obs.trace_files"] = (float(sum(1 for _ in (work / "traced").glob(
        "*/service/traces/**/*.jsonl"))), "count")
    speed, spread = norm.host_speed(*base.window)
    metrics["bench.host_speed"] = (speed, "ratio")
    metrics["bench.host_speed_iqr"] = (spread, "ratio")
    for name, (_, raw, unit) in base.metrics.items():
        metrics[f"bench.raw.{name}"] = (raw, unit)
    metrics["bench.op_samples"] = (float(base.op_samples), "count")
    if "work_s" in base.metrics and "work_s" in traced.metrics:
        metrics["bench.trace_overhead"] = (
            traced.metrics["work_s"][0] / base.metrics["work_s"][0] - 1.0,
            "ratio")
    return metrics, attempted, failures


def render(metrics: Metrics) -> str:
    """Human-readable table: name, value, unit and direction."""
    better = {name: b for name, _, b in END_TO_END}
    rows = [f"{name:<36} {value:>14.6g} {unit:<10} "
            f"{better.get(name, '-')}"
            for name, (value, unit) in sorted(metrics.items())]
    return "\n".join(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (the benchmark's own smoke "
                             "test); the figures are not comparable")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failures = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            None if args.tiny else _pinned(args.workload, args.seed),
            args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(render(metrics))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pieces the three workloads share: paths, the program's environment,
host-speed normalisation of recorded intervals, and percentiles."""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def program_env(cache_dir: Path) -> Dict[str, str]:
    """The environment the program runs under: the caller's, without any
    ``REPRO_*`` setting except a fresh ``REPRO_CACHE_DIR``, so every
    other knob (``REPRO_JOBS``, ``REPRO_TRACE_SAMPLE``, ...) keeps the
    program's default."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def launcher(command: Sequence[str], trace_dir: Optional[Path],
             run_id: str, cpu: Optional[int] = None) -> List[str]:
    """Command line that runs ``command`` through ``launch.py``, pinned
    to ``cpu`` when one is given."""
    argv = [sys.executable, str(HERE / "launch.py")]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir), "--run-id", run_id]
    if cpu is not None:
        argv += ["--cpu", str(cpu)]
    return argv + list(command)


def spawn(argv: Sequence[str], cache_dir: Path, **kwargs) -> subprocess.Popen:
    """Start a program process in its own process group (so a timeout
    also stops the pool workers it forked)."""
    return subprocess.Popen(list(argv), env=program_env(cache_dir),
                            stdin=subprocess.DEVNULL, start_new_session=True,
                            **kwargs)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a :func:`spawn`-ed process; past ``timeout`` kill its
    whole process group and reap it.

    The wait blocks in ``waitpid`` rather than polling (``Popen.wait``
    with a timeout sleeps up to 50 ms between polls), so the caller's
    clock reads the process's end to the millisecond."""
    timer = threading.Timer(timeout, _kill_group, (proc,))
    timer.start()
    try:
        proc.wait()
    finally:
        timer.cancel()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); +inf values sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Normaliser:
    """Normalises ``(t0, t1)`` intervals with the samples of the probes
    that watched the CPUs the interval ran on (read once, after the
    intervals were recorded)."""

    def __init__(self, probes: hostspeed.Probes):
        self.cpus = probes.cpus
        self.series = probes.series()

    def seconds(self, t0: float, t1: float,
                cpu: Optional[int] = None) -> float:
        """Normalised length of ``[t0, t1]``: by the probe of ``cpu``
        for a process pinned there, else by every probe."""
        series = self.series if cpu is None else \
            [self.series[self.cpus.index(cpu)]]
        return hostspeed.normalise(t1 - t0, series, t0, t1)

    def speed(self, t0: float, t1: float) -> float:
        return hostspeed.speed_factor(self.series, t0, t1)

    def host_speed(self, t0: float, t1: float) -> Tuple[float, float]:
        """Median relative speed of every sample in ``[t0, t1]`` and the
        samples' inter-quartile spread as a share of that median."""
        rates = [r / hostspeed.REFERENCE_RATE for s in self.series
                 for t, r in s if t0 <= t <= t1]
        return statistics.median(rates), hostspeed.iqr_share(rates)


@dataclass
class PassResult:
    """What one pass of a workload measured.

    ``metrics`` maps an end-to-end metric to ``(normalised, raw, unit)``;
    ``op_samples`` is the number of operations behind ``op_ms``;
    ``window`` is the pass's span of host time.
    """

    metrics: Dict[str, Tuple[float, float, str]] = field(default_factory=dict)
    op_samples: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)

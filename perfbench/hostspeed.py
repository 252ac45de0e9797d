"""Host-speed probe and the normalisation of host time.

On a shared virtual machine the speed of a CPU drifts by tens of per
cent within a minute (a fixed pure-Python kernel ran at 47 to 77
iterations/s within 40 s on the 2-vCPU VM this benchmark was tuned on),
and wall time equals CPU time there, so measuring CPU time instead of
wall time does not remove the drift.  The benchmark therefore runs a
probe beside the program: a process pinned to one CPU that runs a fixed
kernel for about 2 ms every 0.05 s and rates it in CPU
time (``time.thread_time``), which reads the speed of that CPU rather
than the share of it the probe gets.

A timed interval is normalised by multiplying its host time by the mean
probe rate over the interval divided by :data:`REFERENCE_RATE`: the
result is the time the interval would have taken on a host running the
kernel at the reference rate.  Rates divide by the normalised time.
Each interval is normalised over at least :data:`MIN_SAMPLES` probe
samples; a shorter interval borrows the samples nearest to it.

Run as a script, this module is the probe process itself::

    python3 perfbench/hostspeed.py --cpu 0 --out samples.txt
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Kernel iterations per probe sample (~2 ms of CPU at reference speed).
KERNEL_ITERATIONS = 8000
#: Seconds between the starts of two probe samples.  The tuning VM's
#: speed flipped between two levels (~3.2 and ~5.2 M iterations/s) from
#: one 0.1 s sample to the next, so the probe samples twice as often.
SAMPLE_PERIOD_S = 0.05
#: Fewest probe samples an interval is normalised over.
MIN_SAMPLES = 10
#: Kernel rate (iterations per CPU second) that normalised times refer to:
#: a round figure near the median probe rate (3.3-4.8 M) on the 2-vCPU
#: VM the benchmark was tuned on.  Fixed: changing it rescales every
#: normalised metric.
REFERENCE_RATE = 4.0e6

#: One probe sample: (CLOCK_MONOTONIC mid-point in seconds, iterations
#: per CPU second).
Sample = Tuple[float, float]


def kernel(n: int) -> int:
    """The fixed pure-Python workload the probe times: dictionary
    lookups, integer arithmetic and branches, like the simulator's."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 1023
        acc = (acc + table.get(key, i)) ^ i
        if acc & 1:
            table[key] = acc & 0xFFFF
        else:
            acc >>= 1
    return acc


def probe_loop(out) -> None:
    """Write one ``"<monotonic> <rate>"`` line per sample to ``out``
    until the process is terminated."""
    next_at = time.monotonic()
    while True:
        w0 = time.monotonic()
        c0 = time.thread_time()
        kernel(KERNEL_ITERATIONS)
        c1 = time.thread_time()
        w1 = time.monotonic()
        if c1 > c0:
            out.write(f"{(w0 + w1) / 2:.6f} "
                      f"{KERNEL_ITERATIONS / (c1 - c0):.1f}\n")
            out.flush()
        next_at += SAMPLE_PERIOD_S
        delay = next_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        else:
            next_at = time.monotonic()


def read_samples(path: Path) -> List[Sample]:
    """Parse a probe's output file (a torn last line is skipped)."""
    samples: List[Sample] = []
    try:
        text = path.read_text()
    except FileNotFoundError:
        return samples
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 2:
            continue
        try:
            samples.append((float(parts[0]), float(parts[1])))
        except ValueError:
            continue
    return samples


def window_rate(samples: Sequence[Sample], t0: float, t1: float,
                min_samples: int = MIN_SAMPLES) -> float:
    """Mean probe rate over ``[t0, t1]``.

    When fewer than ``min_samples`` samples fall inside, the
    ``min_samples`` samples nearest to the interval are used instead.
    """
    if not samples:
        raise ValueError("no probe samples")
    inside = [r for t, r in samples if t0 <= t <= t1]
    if len(inside) >= min_samples:
        return statistics.fmean(inside)

    def distance(sample: Sample) -> float:
        t = sample[0]
        return t0 - t if t < t0 else (t - t1 if t > t1 else 0.0)

    nearest = sorted(samples, key=distance)[:min_samples]
    return statistics.fmean(r for _, r in nearest)


def speed_factor(series: Sequence[Sequence[Sample]], t0: float,
                 t1: float) -> float:
    """Host speed over ``[t0, t1]`` relative to :data:`REFERENCE_RATE`,
    averaged over the probes (one per CPU the interval ran on)."""
    return statistics.fmean(window_rate(s, t0, t1) for s in series) \
        / REFERENCE_RATE


def normalise(raw_s: float, series: Sequence[Sequence[Sample]],
              t0: float, t1: float) -> float:
    """Host time ``raw_s`` measured over ``[t0, t1]``, rescaled to the
    reference host speed."""
    return raw_s * speed_factor(series, t0, t1)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Probes:
    """Probe processes, one per CPU in ``cpus``, writing into ``workdir``.

    Use as a context manager: the probes are stopped and waited for on
    exit.  :meth:`series` re-reads their samples so far.
    """

    def __init__(self, cpus: Sequence[int], workdir: Path):
        self.cpus = list(cpus)
        self.paths = [workdir / f"probe-cpu{cpu}.txt" for cpu in self.cpus]
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Probes":
        for cpu, path in zip(self.cpus, self.paths):
            self._procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--cpu", str(cpu), "--out", str(path)],
                stdin=subprocess.DEVNULL))
        # Wait for every probe to have written enough samples that the
        # first timed interval can be normalised.
        deadline = time.monotonic() + 30.0
        while any(len(read_samples(p)) < MIN_SAMPLES for p in self.paths):
            if time.monotonic() > deadline or any(
                    proc.poll() is not None for proc in self._procs):
                self.stop()
                raise RuntimeError("host-speed probe failed to start")
            time.sleep(SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []

    def series(self) -> List[List[Sample]]:
        return [read_samples(p) for p in self.paths]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True,
                        help="CPU to pin the probe to")
    parser.add_argument("--out", required=True, help="sample file")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(args.out, "a") as out:
        probe_loop(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""SimFlex-style statistical sampling (paper Section VI-C).

The paper launches simulations from >100 checkpoints per workload and
reports means with 95% confidence and <4% intervals.  Here a "checkpoint"
is an independently-seeded trace sample of the same workload; this module
runs a scheme over several samples and reports the mean and a
t-distribution confidence interval for each metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

# The t-distribution machinery moved to repro.experiments.report so the
# benchmark regression gate can share it; the old private names remain
# as aliases for existing callers.
from .report import t_cdf as _t_cdf, t_ppf as _t_ppf
from .runner import build_scheme

if TYPE_CHECKING:
    from ..frontend import FrontendStats


@dataclass
class SampledMetric:
    """Mean and confidence interval of one metric across samples."""

    name: str
    samples: List[float]
    confidence: float = 0.95

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n

    @property
    def std_error(self) -> float:
        if self.n < 2:
            return 0.0
        mean = self.mean
        var = sum((x - mean) ** 2 for x in self.samples) / (self.n - 1)
        return math.sqrt(var / self.n)

    @property
    def ci_half_width(self) -> float:
        if self.n < 2:
            return 0.0
        t = _t_ppf(0.5 + self.confidence / 2, df=self.n - 1)
        return t * self.std_error

    @property
    def relative_ci(self) -> float:
        """Half-width as a fraction of the mean (paper target: < 4%)."""
        mean = self.mean
        return self.ci_half_width / abs(mean) if mean else 0.0

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (f"{self.name}: {self.mean:.4f} "
                f"± {self.ci_half_width:.4f} "
                f"({self.relative_ci:.1%} of mean, n={self.n})")


@dataclass
class SampledRun:
    workload: str
    scheme: str
    metrics: Dict[str, SampledMetric] = field(default_factory=dict)

    def __getitem__(self, name: str) -> SampledMetric:
        return self.metrics[name]


def _default_metrics(stats: FrontendStats,
                     baseline: FrontendStats) -> Dict[str, float]:
    return {
        "speedup": stats.speedup_over(baseline),
        "ipc": stats.ipc,
        "coverage": stats.coverage_over(baseline),
        "cmal": stats.cmal,
        "fscr": stats.fscr_over(baseline),
    }


def _simulate_sample(payload: Tuple[str, str, int, int, float, int]
                     ) -> Tuple[FrontendStats, FrontendStats]:
    """One checkpoint: ``(scheme stats, baseline stats)`` for a sample.

    Module-level so the parallel runner can ship it to worker processes;
    both return values are plain counter dataclasses, so pickling them
    back is cheap and lossless.
    """
    from ..frontend import FrontendConfig, FrontendSimulator
    from ..workloads import get_generator

    workload, scheme, n_records, warmup, scale, sample = payload
    generator = get_generator(workload, scale=scale)
    trace = generator.generate(n_records, sample=sample)
    baseline = FrontendSimulator(
        trace, config=FrontendConfig(),
        program=generator.program).run(warmup=warmup)
    prefetcher, overrides = build_scheme(scheme)
    stats = FrontendSimulator(
        trace, config=FrontendConfig(**overrides),
        prefetcher=prefetcher,
        program=generator.program).run(warmup=warmup)
    return stats, baseline


def run_sampled(workload: str, scheme: str, n_samples: int = 5,
                n_records: int = 60_000, warmup: Optional[int] = None,
                scale: float = 1.0,
                metric_fn: Callable[[FrontendStats, FrontendStats],
                                    Dict[str, float]] = _default_metrics,
                confidence: float = 0.95,
                jobs: Optional[int] = None) -> SampledRun:
    """Run ``scheme`` on ``n_samples`` independent trace samples.

    Each sample is a fresh walk of the same program (different request
    arrival order), like launching from a different checkpoint.  The
    baseline is re-simulated per sample so derived metrics compare runs
    of the *same* trace.  Samples are independent, so ``jobs > 1`` fans
    them out to worker processes; the per-sample seeding makes the
    result identical regardless of the job count.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for an interval")
    if warmup is None:
        warmup = n_records // 3
    from .parallel import map_parallel
    payloads = [(workload, scheme, n_records, warmup, scale, sample)
                for sample in range(n_samples)]
    collected: Dict[str, List[float]] = {}
    for stats, baseline in map_parallel(_simulate_sample, payloads,
                                        jobs=jobs):
        for name, value in metric_fn(stats, baseline).items():
            collected.setdefault(name, []).append(value)

    run = SampledRun(workload=workload, scheme=scheme)
    for name, values in collected.items():
        run.metrics[name] = SampledMetric(name, values,
                                          confidence=confidence)
    return run


def render_sampled(run: SampledRun) -> str:
    lines = [f"{run.workload} / {run.scheme} "
             f"({next(iter(run.metrics.values())).n} samples)"]
    for metric in run.metrics.values():
        lines.append(f"  {metric.name:10s} {metric.mean:8.4f} "
                     f"± {metric.ci_half_width:.4f} "
                     f"({metric.relative_ci:5.1%})")
    return "\n".join(lines)

"""Statistical regression gate over the benchmark history.

``repro bench --check`` compares every freshly measured cell against
the latest stored baseline for the same cell (:func:`check_records`)
and produces one :class:`Verdict` each:

* **behaviour** — the deterministic counter digest changed.  The
  engine computed something different; no amount of wall-clock noise
  explains that, so it always fails the gate.
* **regression** — mean records/sec dropped by more than the tolerance
  *and* the two t-confidence intervals do not overlap.  Requiring both
  keeps the gate deterministic in the acceptance sense: back-to-back
  runs of the same build jitter within their intervals and pass, while
  a real slowdown (no overlap, beyond tolerance) fails.
* **pass / improved** — within tolerance, or faster beyond it.
* **unresolved** — one side has fewer than two timing samples, so it has
  no interval to compare (``--repeats 1``); its timing is not gated.
  Digest drift is still checked first and still fails.
* **no-baseline** — first measurement of this cell; recorded, not failed.

The interval machinery is the shared stdlib t-quantile code in
:mod:`repro.experiments.report` (scipy optional).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.report import SampleSummary, summarize_samples

#: Default relative slowdown tolerated before a cell can fail (10%).
DEFAULT_TOLERANCE = 0.10


def parse_tolerance(text) -> float:
    """Parse ``"10%"``, ``"0.1"`` or ``10`` into a fraction (0.10)."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        s = str(text).strip()
        if s.endswith("%"):
            return float(s[:-1]) / 100.0
        value = float(s)
    # A bare number above 1 reads as a percentage ("10" means 10%).
    return value / 100.0 if value > 1.0 else value


@dataclass
class Verdict:
    """Gate outcome for one benchmark cell."""

    cell: str
    workload: str
    scheme: str
    #: pass|improved|regression|behaviour|unresolved|no-baseline
    status: str
    current_rps: float
    baseline_rps: Optional[float] = None
    ratio: Optional[float] = None     # baseline/current (>1 = slower now)
    tolerance: float = DEFAULT_TOLERANCE
    ci_current: Optional[SampleSummary] = None
    ci_baseline: Optional[SampleSummary] = None
    ci_overlap: Optional[bool] = None
    baseline_rev: Optional[str] = None
    current_rev: Optional[str] = None
    drift: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "behaviour")

    def as_dict(self) -> Dict[str, Any]:
        d = {
            "cell": self.cell, "workload": self.workload,
            "scheme": self.scheme, "status": self.status,
            "current_rps": self.current_rps,
            "baseline_rps": self.baseline_rps,
            "ratio": self.ratio, "tolerance": self.tolerance,
            "ci_overlap": self.ci_overlap,
            "baseline_rev": self.baseline_rev,
            "current_rev": self.current_rev,
        }
        if self.ci_current is not None:
            d["ci_current"] = self.ci_current.as_dict()
        if self.ci_baseline is not None:
            d["ci_baseline"] = self.ci_baseline.as_dict()
        if self.drift:
            d["drift"] = dict(self.drift)
        return d


def _digest_drift(current: Dict[str, Any],
                  baseline: Dict[str, Any]) -> Dict[str, Any]:
    """Counters whose values differ: ``{name: [baseline, current]}``."""
    cur = current.get("digest") or {}
    base = baseline.get("digest") or {}
    drift = {}
    for name in sorted(set(cur) | set(base)):
        if cur.get(name) != base.get(name):
            drift[name] = [base.get(name), cur.get(name)]
    return drift


def check_record(current: Dict[str, Any],
                 baseline: Optional[Dict[str, Any]],
                 tolerance: float = DEFAULT_TOLERANCE,
                 confidence: float = 0.95) -> Verdict:
    """Gate one freshly measured cell against its stored baseline."""
    verdict = Verdict(
        cell=current.get("cell", "?"),
        workload=current.get("workload", "?"),
        scheme=current.get("scheme", "?"),
        status="no-baseline",
        current_rps=float(current.get("mean_records_per_sec", 0.0)),
        tolerance=tolerance,
        current_rev=current.get("git_rev"))
    if baseline is None:
        return verdict

    verdict.baseline_rev = baseline.get("git_rev")
    verdict.baseline_rps = float(baseline.get("mean_records_per_sec", 0.0))

    drift = _digest_drift(current, baseline)
    if drift:
        verdict.status = "behaviour"
        verdict.drift = drift
        return verdict

    cur = summarize_samples(current.get("records_per_sec") or
                            [verdict.current_rps], confidence)
    base = summarize_samples(baseline.get("records_per_sec") or
                             [verdict.baseline_rps], confidence)
    verdict.ci_current = cur
    verdict.ci_baseline = base
    verdict.ratio = base.mean / cur.mean if cur.mean else float("inf")
    if cur.n < 2 or base.n < 2:
        # A single sample's interval has zero width, so any two single
        # samples would read as disjoint and one noisy run would fail.
        verdict.status = "unresolved"
        return verdict
    verdict.ci_overlap = cur.overlaps(base)

    if verdict.ratio > 1.0 + tolerance and not verdict.ci_overlap:
        verdict.status = "regression"
    elif verdict.ratio < 1.0 - tolerance and not verdict.ci_overlap:
        verdict.status = "improved"
    else:
        verdict.status = "pass"
    return verdict


def check_records(records: Sequence[Dict[str, Any]],
                  history: Sequence[Dict[str, Any]],
                  tolerance: float = DEFAULT_TOLERANCE,
                  confidence: float = 0.95) -> List[Verdict]:
    """Gate every record against the latest matching history entry.

    ``history`` must be the state *before* the records were appended —
    ``repro bench --check`` loads it first, gates, then appends.
    """
    from .bench import latest_baseline
    return [check_record(r, latest_baseline(history, r),
                         tolerance=tolerance, confidence=confidence)
            for r in records]


def any_failed(verdicts: Sequence[Verdict]) -> bool:
    return any(v.failed for v in verdicts)


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    """Per-scheme verdict table for the terminal."""
    lines = [f"{'workload':16s} {'scheme':22s} {'current':>10s} "
             f"{'baseline':>10s} {'slowdown':>9s} {'verdict':>11s}"]
    for v in verdicts:
        base = f"{v.baseline_rps:,.0f}" if v.baseline_rps else "-"
        ratio = f"{(v.ratio - 1.0):+8.1%}" if v.ratio else "        -"
        lines.append(f"{v.workload:16s} {v.scheme:22s} "
                     f"{v.current_rps:>10,.0f} {base:>10s} {ratio:>9s} "
                     f"{v.status:>11s}")
    unresolved = [v.cell for v in verdicts if v.status == "unresolved"]
    if unresolved:
        lines.append(f"  UNRESOLVED {', '.join(unresolved)}: fewer than two "
                     f"timing samples on a side, timing not gated")
    failures = [v for v in verdicts if v.failed]
    for v in failures:
        if v.status == "behaviour":
            drifted = ", ".join(f"{k}: {a} -> {b}"
                                for k, (a, b) in list(v.drift.items())[:6])
            lines.append(f"  BEHAVIOUR {v.cell}: {drifted}")
        else:
            lines.append(
                f"  REGRESSION {v.cell}: {v.baseline_rps:,.0f} -> "
                f"{v.current_rps:,.0f} rec/s "
                f"({v.ratio - 1.0:+.1%} > {v.tolerance:.0%} tolerance, "
                f"CIs disjoint)")
    return "\n".join(lines)


def markdown_report(verdicts: Sequence[Verdict],
                    tolerance: float = DEFAULT_TOLERANCE,
                    title: str = "Benchmark regression gate") -> str:
    """CI-artifact markdown: summary, verdict table, failure details."""
    failed = [v for v in verdicts if v.failed]
    lines = [f"# {title}", ""]
    if failed:
        lines.append(f"**FAILED** — {len(failed)} of {len(verdicts)} "
                     f"cells regressed (tolerance {tolerance:.0%}).")
    else:
        lines.append(f"**PASSED** — no regression in {len(verdicts)} "
                     f"cells (tolerance {tolerance:.0%}).")
    unresolved = [v for v in verdicts if v.status == "unresolved"]
    if unresolved:
        lines += ["", f"{len(unresolved)} cells unresolved: fewer than two "
                  f"timing samples on a side, so their timing was not "
                  f"gated (their digests were)."]
    lines += [
        "",
        "| workload | scheme | current rec/s | baseline rec/s | "
        "slowdown | CI overlap | verdict |",
        "|---|---|---:|---:|---:|---|---|",
    ]
    for v in verdicts:
        base = f"{v.baseline_rps:,.0f}" if v.baseline_rps else "—"
        ratio = f"{(v.ratio - 1.0):+.1%}" if v.ratio else "—"
        overlap = {True: "yes", False: "no", None: "—"}[v.ci_overlap]
        mark = "❌ " if v.failed else ""
        lines.append(f"| {v.workload} | {v.scheme} | "
                     f"{v.current_rps:,.0f} | {base} | {ratio} | "
                     f"{overlap} | {mark}{v.status} |")
    if failed:
        lines += ["", "## Failures", ""]
        for v in failed:
            lines.append(f"### `{v.cell}`")
            lines.append("")
            if v.status == "behaviour":
                lines.append("Deterministic counters changed "
                             f"(baseline rev `{v.baseline_rev}` → current "
                             f"rev `{v.current_rev}`):")
                lines.append("")
                lines.append("| counter | baseline | current |")
                lines.append("|---|---:|---:|")
                for name, (a, b) in v.drift.items():
                    lines.append(f"| {name} | {a} | {b} |")
            else:
                cur, base = v.ci_current, v.ci_baseline
                lines.append(
                    f"Throughput fell {v.ratio - 1.0:+.1%} "
                    f"(tolerance {v.tolerance:.0%}); "
                    f"current {cur.mean:,.0f} ± {cur.ci_half_width:,.0f} "
                    f"vs baseline {base.mean:,.0f} ± "
                    f"{base.ci_half_width:,.0f} rec/s "
                    f"({cur.confidence:.0%} CIs, non-overlapping).")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"

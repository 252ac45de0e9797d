"""``repro top``: a live text view of a running simulation service.

Polls ``GET /metricsz`` (Prometheus text, parsed back with
:func:`~repro.obs.metrics.parse_prometheus_text`) and ``GET /storez``
on an interval and renders the numbers an operator watches while a
sweep drains: queue depth and in-flight jobs, completion/failure/dedupe
counters, store hit and eviction rates, shard-occupancy skew, and job
latency percentiles derived from the histogram buckets with
:func:`~repro.obs.metrics.quantile_from_buckets`.

Everything here is a pure function over the two scraped payloads
(:func:`snapshot_top` fetches, :func:`render_top` formats) so the tests
can drive the renderer without a live socket; :func:`run_top` is the
thin polling loop the CLI wraps.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..obs.metrics import parse_prometheus_text, quantile_from_buckets
from .client import ServiceClient, ServiceError

#: Series name -> [(labels, value)] as parse_prometheus_text returns.
Parsed = Dict[str, List[Tuple[Dict[str, str], float]]]

#: The percentiles the latency rows report.
QUANTILES = (0.5, 0.95, 0.99)


def _total(parsed: Parsed, name: str) -> float:
    """Sum of one series across every label set (0.0 when absent)."""
    return sum(value for _labels, value in parsed.get(name, []))


def _bucket_pairs(parsed: Parsed, name: str
                  ) -> List[Tuple[float, float]]:
    """A histogram's ``(upper_bound, cumulative_count)`` pairs."""
    pairs: List[Tuple[float, float]] = []
    for labels, value in parsed.get(f"{name}_bucket", []):
        le = labels.get("le")
        if le is None:
            continue
        try:
            bound = math.inf if le == "+Inf" else float(le)
        except ValueError:
            continue
        pairs.append((bound, value))
    pairs.sort(key=lambda pair: pair[0])
    return pairs


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.0f}ms"
    return f"{value:.2f}s"


def _shard_skew(shards: Dict[str, Dict[str, Any]]) -> str:
    """One phrase summarising a kind's shard spread."""
    if not shards:
        return "0 shards"
    counts = [int(cell.get("count", 0)) for cell in shards.values()]
    nbytes = sum(int(cell.get("bytes", 0)) for cell in shards.values())
    return (f"{len(shards)} shards, max {max(counts)}/min {min(counts)} "
            f"entries, {nbytes / 1024:.1f} KiB")


def snapshot_top(client: ServiceClient) -> Dict[str, Any]:
    """Scrape one ``(metricsz, storez)`` pair into plain numbers."""
    parsed = parse_prometheus_text(client.metricsz())
    storez = client.storez()
    return build_snapshot(parsed, storez)


def build_snapshot(parsed: Parsed,
                   storez: Dict[str, Any]) -> Dict[str, Any]:
    """Fold the two scraped payloads into the rendered snapshot.

    Split from :func:`snapshot_top` so tests can feed canned payloads.
    """
    jobs: Dict[str, Any] = dict(storez.get("jobs", {}))
    store_info: Dict[str, Any] = dict(storez.get("store", {}))
    # /storez reads the registry's store counts; a payload without them
    # falls back to the same series scraped from /metricsz.
    counters = dict(store_info.get("counters", {}))
    for labels, value in parsed.get("repro_store_ops_total", []):
        counters.setdefault(labels.get("op", ""), value)
    hits = float(counters.get("hits", 0.0))
    misses = float(counters.get("misses", 0.0))
    looked = hits + misses
    latency: Dict[str, Optional[float]] = {}
    waits: Dict[str, Optional[float]] = {}
    for target, name in ((latency, "repro_job_latency_seconds"),
                         (waits, "repro_job_queue_wait_seconds")):
        pairs = _bucket_pairs(parsed, name)
        for q in QUANTILES:
            target[f"p{int(q * 100)}"] = \
                quantile_from_buckets(pairs, q) if pairs else None
        target["count"] = _total(parsed, f"{name}_count")
    overview = store_info.get("overview", {})
    shards = {kind: dict(overview.get(kind, {}).get("shards", {}))
              for kind in ("results", "traces")}
    return {
        "jobs": jobs,
        "queue_depth": _total(parsed, "repro_job_queue_depth"),
        "running": _total(parsed, "repro_jobs_running"),
        "inflight": _total(parsed, "repro_jobs_inflight"),
        "http_requests": _total(parsed, "repro_http_requests_total"),
        "spans": _total(parsed, "repro_spans_total"),
        "store": {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / looked if looked else None,
            "evicted": float(counters.get("evicted", 0.0)),
            "corrupt": float(counters.get("corrupt", 0.0)),
            "writes": float(counters.get("writes", 0.0)),
        },
        "shards": shards,
        "latency": latency,
        "queue_wait": waits,
    }


def render_top(snap: Dict[str, Any], address: str = "") -> str:
    """Format one snapshot as the ``repro top`` frame."""
    jobs = snap["jobs"]
    store = snap["store"]
    ratio = store["hit_ratio"]
    lines = [
        f"repro top{'  ' + address if address else ''}",
        (f"jobs     queued {snap['queue_depth']:.0f}  "
         f"running {snap['running']:.0f}  "
         f"inflight {snap['inflight']:.0f}  "
         f"submitted {jobs.get('submitted', 0)}  "
         f"completed {jobs.get('completed', 0)}  "
         f"failed {jobs.get('failed', 0)}  "
         f"deduped {jobs.get('deduped', 0)}"),
        (f"http     requests {snap['http_requests']:.0f}  "
         f"spans {snap['spans']:.0f}"),
        (f"store    hits {store['hits']:.0f}  "
         f"misses {store['misses']:.0f}  "
         f"hit-ratio {'-' if ratio is None else f'{ratio:.1%}'}  "
         f"writes {store['writes']:.0f}  "
         f"evicted {store['evicted']:.0f}  "
         f"corrupt {store['corrupt']:.0f}"),
    ]
    for kind in ("results", "traces"):
        lines.append(f"shards   {kind:8s} {_shard_skew(snap['shards'][kind])}")
    for label, key in (("latency", "latency"),
                       ("q-wait", "queue_wait")):
        row = snap[key]
        lines.append(
            f"{label:8s} " + "  ".join(
                f"p{int(q * 100)} {_fmt_seconds(row[f'p{int(q * 100)}'])}"
                for q in QUANTILES)
            + f"  (n={row['count']:.0f})")
    return "\n".join(lines)


def run_top(host: str, port: int, interval: float = 2.0,
            iterations: Optional[int] = None,
            out: Optional[TextIO] = None) -> int:
    """Poll and render until interrupted (or ``iterations`` frames).

    Returns a process exit code: 1 when the very first scrape fails
    (nothing is listening), 0 otherwise.
    """
    stream = out if out is not None else sys.stdout
    client = ServiceClient(host, port)
    frame = 0
    while iterations is None or frame < iterations:
        try:
            snap = snapshot_top(client)
        except ServiceError as exc:
            print(f"repro top: {exc}", file=stream)
            return 1 if frame == 0 else 0
        if frame:
            print("", file=stream)
        print(render_top(snap, address=f"{host}:{port}"), file=stream)
        stream.flush()
        frame += 1
        if iterations is not None and frame >= iterations:
            break
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            break
    return 0

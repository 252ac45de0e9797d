"""Parallel experiment execution: fan (workload, scheme) runs out to workers.

Every figure/table driver reduces to a bag of independent
``run_scheme(workload, scheme, ...)`` simulations; this module runs such
a bag on a :class:`~concurrent.futures.ProcessPoolExecutor` and seeds the
in-process memo cache with the workers' slim results, so the serial
driver code that follows gets pure cache hits.  The bag is batched by
program, so each program is built by one worker rather than by all.

Results are **bit-identical to serial execution**: workers recompute the
same seeded traces and run the same deterministic engine — parallelism
only changes wall-clock, never a counter.  Workers share the persistent
store (:mod:`repro.experiments.store`), so a fan-out also warms the
on-disk cache for future processes.

Job-count resolution (first match wins): the explicit ``jobs=`` argument,
:func:`set_default_jobs` (the CLI's ``--jobs``), the ``REPRO_JOBS``
environment variable, else 1 (serial — no worker processes at all).

Only registered schemes plus picklable keyword arguments can cross the
process boundary; sweeps built on ``prefetcher_factory`` callables must
keep using :func:`~repro.experiments.runner.run_scheme` serially.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from . import runner
from .runner import RunResult, run_scheme
from ..obs.metrics import REGISTRY, inc, observe
from ..obs.tracing import TRACER, TraceContext
from ..workloads import get_profile

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

ENV_JOBS = "REPRO_JOBS"

_default_jobs: Optional[int] = None

#: (source, value) pairs already warned about (one warning per pair).
_warned_values = set()


def parse_count(value, *, source: str, floor: int = 1) -> Optional[int]:
    """Normalize a numeric knob from an env var or CLI flag.

    The one argument-normalization path for every worker/limit count:
    ``REPRO_JOBS``, the subcommands' ``--jobs`` flags and ``repro
    lint``'s all route through here, so an unparsable value warns
    *identically* everywhere — once per distinct (source, value) pair —
    and degrades to None (callers fall back to serial) instead of
    silently forcing serial execution or hard-exiting mid-parse.
    """
    try:
        return max(floor, int(str(value).strip()))
    except (TypeError, ValueError):
        key = (source, str(value))
        if key not in _warned_values:
            _warned_values.add(key)
            warnings.warn(
                f"ignoring invalid {source}={str(value)!r} (not an "
                f"integer); running serial",
                RuntimeWarning, stacklevel=3)
        return None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (None = unset)."""
    global _default_jobs
    _default_jobs = None if jobs is None else max(1, int(jobs))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count for a run (see module docstring)."""
    if jobs is not None:
        return max(1, int(jobs))
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get(ENV_JOBS, "")
    if env:
        parsed = parse_count(env, source=ENV_JOBS)
        if parsed is not None:
            return parsed
    return 1


#: A run request: ``(workload, scheme)`` or ``(workload, scheme, params)``
#: where ``params`` are extra ``run_scheme`` keyword arguments.
RunSpec = Tuple


def _normalise(spec: RunSpec, common: Dict) -> Tuple[str, str, Dict]:
    if len(spec) == 2:
        workload, scheme = spec
        params: Dict = {}
    elif len(spec) == 3:
        workload, scheme, params = spec
    else:
        raise ValueError(f"run spec must be (workload, scheme[, params]), "
                         f"got {spec!r}")
    merged = dict(common)
    merged.update(params or {})
    return workload, scheme, merged


def _key(workload: str, scheme: str, params: Dict) -> Tuple:
    """The memo key :func:`run_scheme` uses for one normalised spec."""
    return runner.cache_key(
        workload, scheme,
        n_records=params.get("n_records", runner.DEFAULT_RECORDS),
        warmup=params.get("warmup"),
        scale=params.get("scale", 1.0),
        variable_length=params.get("variable_length", False),
        config_overrides=params.get("config_overrides"),
        cache_key_extra=params.get("cache_key_extra"))


#: The trace leg of a worker payload: ``(trace_id, parent_span_id,
#: worker_span_id)``, or None when the submitting side has no active
#: trace.  The *parent* pre-allocates the worker's span id (ids fold a
#: per-process counter, and the workers' counters all restart at zero —
#: two workers naming their own spans would collide).
TraceLeg = Optional[Tuple[str, str, str]]

#: One pool task's input: ``(workload, scheme, params, trace leg)``.
Payload = Tuple[str, str, Dict, TraceLeg]

#: One spec's output from a pool worker: the memo key, the result, the
#: worker-side wall time, and the worker's instrumentation snapshot for
#: that spec alone (see :func:`_merge`).
WorkerResult = Tuple[Tuple, RunResult, float, Dict]


def _run_payload(payload: Payload) -> WorkerResult:
    """One slim simulation run inside a pool worker.

    The metric values and the tracer are reset first because pool
    processes are reused across specs: the snapshot must cover exactly
    this spec, so the parent can fold it into its own.
    """
    workload, scheme, params, leg = payload
    REGISTRY.reset_values()
    TRACER.reset()
    start = time.perf_counter()
    if leg is not None:
        trace_id, parent_span_id, worker_span_id = leg
        with TRACER.span("run_many.worker",
                         parent=TraceContext(trace_id, parent_span_id),
                         span_id=worker_span_id,
                         attrs={"workload": workload, "scheme": scheme}):
            result = run_scheme(workload, scheme, **params)
    else:
        result = run_scheme(workload, scheme, **params)
    elapsed = time.perf_counter() - start
    observe("repro_pool_task_seconds", elapsed)
    snapshot = REGISTRY.snapshot()
    del snapshot["gauges"]
    snapshot["spans"] = TRACER.snapshot()
    return _key(workload, scheme, params), result, elapsed, snapshot


def _merge(snapshot: Dict) -> None:
    """Fold one worker snapshot into this process.

    Counters and histogram buckets add and finished spans join the
    tracer's buffer.  Gauges sample one process's state (its store
    session, the service queue), so they never cross processes: the
    worker leaves them out and :meth:`MetricsRegistry.merge` ignores
    them.
    """
    REGISTRY.merge(snapshot)
    TRACER.merge(snapshot["spans"])


def _worker(batch: List[Payload]) -> List[WorkerResult]:
    """Executed in a worker process: one program's batch of specs, in
    order, so the program is built once for all of them."""
    return [_run_payload(payload) for payload in batch]


def _build_cost(workload: str, scale: float) -> float:
    """Estimated build cost of a program, from its profile: its
    instruction count (functions x segments x block length), times
    scale.  A fixed-length build no longer makes an object per
    instruction, so its time now follows the block count more closely;
    the estimate still orders web_frontend, web_zeus, web_apache and
    oltp_db_a as their measured builds do (docs/performance.md)."""
    cfg = get_profile(workload).cfg
    return cfg.n_functions * cfg.avg_segments * cfg.avg_block_instr * scale


def _program_batches(payloads: List[Payload],
                     workers: int) -> List[List[Payload]]:
    """Group pool payloads into one batch per program, largest build
    first.

    A program is ``(workload, scale, variable_length)``: every spec on
    it shares the build (CFG, layout, pre-decode memos) and traces, so
    one worker running all of them builds it once instead of every
    worker building every program.  The largest build starts first, so
    no worker is left building it while the other idles at the end.
    While there are fewer batches than workers the batch with the most
    specs is split in half, so a fan-out over one program (a service
    ``compare`` job) still uses the pool.
    """
    groups: Dict[Tuple, List[Payload]] = {}
    for payload in payloads:
        params = payload[2]
        program = (payload[0], params.get("scale", 1.0),
                   params.get("variable_length", False))
        groups.setdefault(program, []).append(payload)
    batches = [(_build_cost(program[0], program[1]), specs)
               for program, specs in groups.items()]
    while len(batches) < workers:
        i = max(range(len(batches)), key=lambda j: len(batches[j][1]))
        cost, largest = batches[i]
        if len(largest) == 1:
            break
        half = (len(largest) + 1) // 2
        batches[i:i + 1] = [(cost, largest[:half]), (cost, largest[half:])]
    batches.sort(key=lambda batch: (batch[0], len(batch[1])), reverse=True)
    return [specs for _cost, specs in batches]


def _bins(batches: List[List[Payload]],
          workers: int) -> List[List[Payload]]:
    """Place program batches on at most ``workers`` bins, one pool task
    each.

    The schedule is fixed before the pool starts: batches come largest
    build first (:func:`_program_batches`) and each goes to the bin with
    the least summed build cost so far.  A worker then holds the same
    programs on every run, so its memory does not depend on which
    worker happens to finish first.
    """
    bins: List[List[Payload]] = [[] for _ in range(min(workers,
                                                       len(batches)))]
    load = [0.0] * len(bins)
    for batch in batches:
        i = min(range(len(bins)), key=load.__getitem__)
        bins[i].extend(batch)
        workload, _scheme, params, _leg = batch[0]
        load[i] += _build_cost(workload, params.get("scale", 1.0))
    return bins


def _pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers fork with the simulator loaded.

    :func:`~repro.experiments.runner.load_simulator` runs first, so the
    forking thread waits out an import another thread (a served job) is
    midway through, and the workers inherit the modules instead of each
    importing them.
    """
    from concurrent.futures import ProcessPoolExecutor

    runner.load_simulator()
    return ProcessPoolExecutor(max_workers=workers)


def run_many(specs: Iterable[RunSpec], jobs: Optional[int] = None,
             progress: Optional[Callable[[RunResult], None]] = None,
             **common) -> List[RunResult]:
    """Run every spec and return results in input order.

    ``common`` keyword arguments (e.g. ``n_records=...``) apply to every
    spec unless its own params override them.  With an effective job
    count of 1 this is exactly a loop over ``run_scheme``; with more, the
    unique specs are grouped into one batch per program (see
    :func:`_program_batches`), the batches are placed on one bin per
    worker process (see :func:`_bins`), and the memo cache is seeded so
    later ``run_scheme`` calls in this process hit.

    ``progress``, when given, is called with each spec's result as it
    lands: in input order serially; under a pool, once per unique spec —
    memoised specs first, then each bin's specs together as the bin
    returns (bins in submission order), or from the serial fallback if
    the pool breaks first — the service's job event stream hangs off
    this hook.

    Each spec is tallied once, as in the serial loop: a simulation or a
    store hit where it ran, a memo hit for a memoised spec or a repeat.
    """
    normalised = [_normalise(s, common) for s in specs]
    n_jobs = resolve_jobs(jobs)
    if n_jobs <= 1 or len(normalised) <= 1:
        results = []
        for w, s, p in normalised:
            result = run_scheme(w, s, **p)
            if progress is not None:
                progress(result)
            results.append(result)
        return results

    # Deduplicate: figure drivers re-request the baseline many times.
    unique: Dict[Tuple, Tuple[str, str, Dict]] = {}
    for w, s, p in normalised:
        unique.setdefault(_key(w, s, p), (w, s, p))
    # Serve already-memoised keys locally; only miss keys hit the pool.
    done: Dict[Tuple, RunResult] = {}
    todo: Dict[Tuple, Tuple[str, str, Dict]] = {}
    for key, (w, s, p) in unique.items():
        if key in runner._CACHE:
            done[key] = run_scheme(w, s, **p)
            if progress is not None:
                progress(done[key])
        else:
            todo[key] = (w, s, p)

    if todo:
        # Crossing the process boundary is the one explicit propagation
        # hop: the current context (the job.run span when running under
        # the service) travels inside each payload, with the worker's
        # span id pre-allocated here so sibling workers never collide.
        ctx = TRACER.current()
        payloads: List[Payload] = []
        for w, s, p in todo.values():
            leg: TraceLeg = None
            if ctx is not None:
                leg = (ctx.trace_id, ctx.span_id,
                       TRACER.new_span_id(ctx.trace_id, ctx.span_id,
                                          "run_many.worker"))
            payloads.append((w, s, p, leg))
        from concurrent.futures.process import BrokenProcessPool

        bins = _bins(_program_batches(payloads, n_jobs), n_jobs)
        workers = len(bins)
        pool_start = time.perf_counter()
        try:
            with _pool(workers) as pool:
                busy = 0.0
                for batch in pool.map(_worker, bins):
                    for key, result, elapsed, snapshot in batch:
                        done[key] = result
                        runner.seed_cache(key, result)
                        _merge(snapshot)
                        busy += elapsed
                        if progress is not None:
                            progress(result)
            wall = time.perf_counter() - pool_start
            observe("repro_pool_seconds", wall)
            # Wall time not covered by (perfectly parallel) worker work:
            # process spin-up, pickling, queue wait, and a worker idling
            # once its bin is done.
            observe("repro_pool_overhead_seconds",
                    max(0.0, wall - busy / workers))
        except BrokenProcessPool:
            # Worker crashed (e.g. fork-hostile environment): degrade to
            # serial execution rather than failing the experiment.  The
            # specs the pool never delivered still report progress.
            inc("repro_pool_broken_total")
            for key, (w, s, p) in todo.items():
                if key not in done:
                    done[key] = run_scheme(w, s, **p)
                    if progress is not None:
                        progress(done[key])

    # A spec's first occurrence takes its result from ``done``; a repeat
    # asks run_scheme, a memo hit exactly as in the serial loop.
    results = []
    for w, s, p in normalised:
        result = done.pop(_key(w, s, p), None)
        results.append(result if result is not None
                       else run_scheme(w, s, **p))
    return results


def map_parallel(fn: Callable, items: Sequence,
                 jobs: Optional[int] = None) -> List:
    """Order-preserving parallel map with serial fallback.

    ``fn`` must be a module-level (picklable) callable.  Used by the
    sampling and multicore setup paths to fan out trace generation and
    per-sample simulation.
    """
    items = list(items)
    n_jobs = resolve_jobs(jobs)
    if n_jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures.process import BrokenProcessPool

    try:
        with _pool(min(n_jobs, len(items))) as pool:
            return list(pool.map(fn, items))
    except BrokenProcessPool:
        return [fn(item) for item in items]

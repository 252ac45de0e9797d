"""Spans around the program's layer entry points, for the traced run.

:func:`install` wraps each layer's public entry points (listed in
:data:`ENTRY_POINTS`) in place, from outside the program: nothing under
``src/`` changes.  A span carries its name, start and end (on the
system-wide monotonic clock, so spans of different processes line up),
its parent span, the process and the run id; counts (records simulated,
bytes written, store hits) ride on the span that produced them.

Spans stay in memory and each process writes its own file,
``spans-<pid>.jsonl``, when it ends: the process that installed the
wrappers calls :meth:`Recorder.dump`; pool workers, which inherit the
wrappers through fork, dump from a multiprocessing exit finaliser.

:func:`layer_metrics` turns the spans of one traced run into the
per-layer table.  A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Id of the innermost open span in this context (thread, task, process).
_CURRENT: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_span", default=None)
#: Scheme whose simulation is running in this context (engine spans).
_SCHEME: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_scheme", default=None)


class Recorder:
    """In-memory span list of one process, written out at its end."""

    def __init__(self, out_dir: Path, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker starts with an empty list and writes its
        # own spans when it exits.
        self.spans = []
        self._lock = threading.Lock()
        mp_util.Finalize(None, self.dump, exitpriority=10)

    def new_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}"

    def add(self, span: Dict[str, Any]) -> None:
        with self._lock:
            self.spans.append(span)

    def dump(self) -> Path:
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with self._lock:
            lines = [json.dumps(s) for s in self.spans]
        with open(path, "w") as out:
            out.write("".join(line + "\n" for line in lines))
        return path


AttrsFn = Callable[[tuple, dict, Any], Dict[str, Any]]


def _wrap(recorder: Recorder, fn: Callable, name: str,
          attrs: Optional[AttrsFn] = None,
          scheme: Optional[Callable[[tuple, dict], str]] = None
          ) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = recorder.new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        scheme_token = _SCHEME.set(scheme(args, kwargs)) \
            if scheme is not None else None
        result = None
        error = None
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.monotonic()
            if scheme_token is not None:
                _SCHEME.reset(scheme_token)
            _CURRENT.reset(token)
            span = {"name": name, "start": start, "end": end,
                    "id": span_id, "parent": parent, "pid": os.getpid(),
                    "run": recorder.run_id, "error": error}
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            recorder.add(span)
    return wrapper


@contextlib.contextmanager
def scheme_label(name: str) -> Iterator[None]:
    """Label engine spans opened inside the block with ``name``."""
    token = _SCHEME.set(name)
    try:
        yield
    finally:
        _SCHEME.reset(token)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args: tuple, kwargs: dict, index: int, key: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(key)


#: ``(module, owner attribute or None, attribute, span name)``: every
#: entry point :func:`install` wraps.  ``owner`` names a class whose
#: method is wrapped; otherwise the module attribute is replaced, in
#: every module that imported the name (callers look it up there).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.workloads.tracegen", None, "generate_cfg", "workloads.cfg"),
    ("repro.workloads.tracegen", None, "layout_program", "workloads.layout"),
    ("repro.isa.predecoder", "Predecoder", "prewarm_fixed",
     "workloads.prewarm"),
    ("repro.workloads.tracegen", "TraceGenerator", "generate",
     "workloads.walk"),
    ("repro.experiments.store", "ResultStore", "load_result",
     "store.result_load"),
    ("repro.experiments.store", "ResultStore", "save_result",
     "store.result_save"),
    ("repro.experiments.store", "ResultStore", "load_trace",
     "store.trace_load"),
    ("repro.experiments.store", "ResultStore", "save_trace",
     "store.trace_save"),
    ("repro.experiments.runner", None, "run_scheme", "runner.run_scheme"),
    ("repro.experiments.parallel", None, "run_many", "parallel.run_many"),
    ("repro.frontend.engine", "FrontendSimulator", "__init__",
     "engine.build"),
    ("repro.frontend.engine", "FrontendSimulator", "run", "engine.run"),
    ("repro.experiments.figures", None, "fig16_speedup", "figures.fig16"),
    ("repro.service.server", None, "execute_job", "service.execute_job"),
    ("repro.service.client", "ServiceClient", "submit", "service.submit"),
    ("repro.service.client", "ServiceClient", "job", "service.poll"),
)

#: Other modules that imported a wrapped module-level name.
_REEXPORTS = {
    "run_scheme": ("repro.experiments", "repro.experiments.figures",
                   "repro.experiments.parallel"),
    "run_many": ("repro.service.server",),
}


def _attrs_for(span_name: str) -> Optional[AttrsFn]:
    if span_name in ("store.result_load", "store.trace_load"):
        return lambda a, k, r: {"hit": r is not None}
    if span_name in ("store.result_save", "store.trace_save"):
        return lambda a, k, r: {"bytes": _file_size(r)}
    if span_name == "workloads.layout":
        return lambda a, k, r: {"seed": _arg(a, k, 3, "seed")}
    if span_name == "engine.run":
        return lambda a, k, r: {"scheme": _SCHEME.get(),
                                "records": len(a[0].trace),
                                "path": a[0].engine_path}
    if span_name == "service.poll":
        return lambda a, k, r: _job_state(r)
    return None


def _job_state(record: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """What a poll that saw a finished job learnt from its record: the
    state, whether it was a dedupe follower and how long it queued."""
    if not record or record.get("state") not in ("done", "failed",
                                                 "cancelled"):
        return {}
    started = record.get("started_at") or record.get("finished_at")
    return {"state": record["state"], "deduped": bool(record.get("deduped")),
            "queue_wait": max(0.0, started - record["submitted_at"])}


def install(out_dir: Path, run_id: str) -> Recorder:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the
    recorder, whose :meth:`Recorder.dump` the caller runs at its end."""
    import importlib

    recorder = Recorder(out_dir, run_id)
    scheme_of = {"runner.run_scheme":
                 lambda a, k: _arg(a, k, 1, "scheme")}
    for module_name, owner_name, attr, span_name in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        wrapper = _wrap(recorder, getattr(owner, attr), span_name,
                        _attrs_for(span_name), scheme_of.get(span_name))
        setattr(owner, attr, wrapper)
        if owner_name is None:
            for other in _REEXPORTS.get(attr, ()):
                setattr(importlib.import_module(other), attr, wrapper)
    return recorder


def load_spans(out_dir: Path) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(json.loads(line))
    return spans


# -- per-layer aggregation ---------------------------------------------------

def _covered(start: float, end: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def _children(spans: List[Dict[str, Any]]
              ) -> Dict[str, List[Dict[str, Any]]]:
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    return children


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children = _children(spans)
    return {s["id"]: _dur(s) - _covered(
        s["start"], s["end"],
        [(c["start"], c["end"]) for c in children.get(s["id"], [])])
        for s in spans}


def _dur(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


#: Schemes every workload simulates, so each has a rate on every workload.
RATE_SCHEMES = ("baseline", "sn4l_dis_btb", "shotgun")


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    Every workload reports the same names.  Times are sums and work is
    counted, so a layer a workload does not exercise reads 0 s and 0
    calls rather than being left out.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    children = _children(spans)
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum((_dur(s) for s in by_name[name]), 0.0)

    out: Dict[str, Tuple[float, str]] = {}
    runs = by_name["engine.run"]
    run_s = total("engine.run")
    out["engine.run_s"] = (run_s, "s")
    out["engine.runs"] = (float(len(runs)), "count")
    out["engine.rec_per_s"] = (
        sum(s["records"] for s in runs) / run_s if run_s else 0.0,
        "records/s")
    for scheme in RATE_SCHEMES:
        mine = [s for s in runs if s["scheme"] == scheme]
        secs = sum(_dur(s) for s in mine)
        out[f"engine.rec_per_s.{scheme}"] = (
            sum(s["records"] for s in mine) / secs if secs else 0.0,
            "records/s")
    out["engine.build_ms"] = (
        1e3 * _mean([_dur(s) for s in by_name["engine.build"]]), "ms")
    for path in ("fast", "vectorized", "generic"):
        out[f"engine.path.{path}"] = (
            float(sum(1 for s in runs if s["path"] == path)), "count")

    for key, name in (("cfg_s", "workloads.cfg"),
                      ("layout_s", "workloads.layout"),
                      ("prewarm_s", "workloads.prewarm"),
                      ("walk_s", "workloads.walk")):
        out[f"workloads.{key}"] = (total(name), "s")
    layouts = by_name["workloads.layout"]
    out["workloads.program_builds"] = (float(len(layouts)), "count")
    distinct = {s["seed"] for s in layouts}
    out["workloads.builds_per_workload"] = (
        len(layouts) / len(distinct) if distinct else 0.0, "count")

    loads = by_name["store.result_load"] + by_name["store.trace_load"]
    saves = by_name["store.result_save"] + by_name["store.trace_save"]
    out["store.load_s"] = (sum((_dur(s) for s in loads), 0.0), "s")
    out["store.save_s"] = (sum((_dur(s) for s in saves), 0.0), "s")
    out["store.loads"] = (float(len(loads)), "count")
    out["store.hits"] = (float(sum(1 for s in loads if s["hit"])), "count")
    out["store.bytes_written"] = (float(sum(s["bytes"] for s in saves)),
                                  "bytes")

    calls = by_name["runner.run_scheme"]
    out["runner.self_s"] = (sum((selfs[s["id"]] for s in calls), 0.0), "s")
    out["runner.calls"] = (float(len(calls)), "count")
    # A memo hit returns before touching the store or the engine.
    out["runner.memo_hits"] = (
        float(sum(1 for s in calls if not children.get(s["id"]))), "count")
    out["runner.simulations"] = (float(sum(
        1 for s in calls
        if any(c["name"] == "engine.run" for c in children[s["id"]]))),
        "count")

    # A pooled run_many has children in its pool workers' processes.
    tasks_of = {s["id"]: [c for c in children.get(s["id"], [])
                          if c["pid"] != s["pid"]]
                for s in by_name["parallel.run_many"]}
    pools = [s for s in by_name["parallel.run_many"] if tasks_of[s["id"]]]
    tasks = [t for s in pools for t in tasks_of[s["id"]]]
    pool_s = sum((_dur(s) for s in pools), 0.0)
    busy = sum((_dur(s) for s in tasks), 0.0)
    workers = len({s["pid"] for s in tasks})
    out["parallel.pool_s"] = (pool_s, "s")
    out["parallel.worker_busy_s"] = (busy, "s")
    out["parallel.pool_overhead_s"] = (
        pool_s - busy / workers if workers else 0.0, "s")
    out["parallel.tasks"] = (float(len(tasks)), "count")

    figures = by_name["figures.fig16"]
    out["figures.self_s"] = (sum((selfs[s["id"]] for s in figures), 0.0),
                             "s")
    out["figures.renders"] = (float(len(figures)), "count")

    submits = by_name["service.submit"]
    finished = [s for s in by_name["service.poll"] if "state" in s]
    out["service.client_s"] = (total("service.submit")
                               + total("service.poll"), "s")
    out["service.execute_s"] = (total("service.execute_job"), "s")
    out["service.queue_wait_s"] = (
        sum((s["queue_wait"] for s in finished), 0.0), "s")
    out["service.jobs"] = (float(len(submits)), "count")
    out["service.polls"] = (float(len(by_name["service.poll"])), "count")
    out["service.deduped"] = (
        float(sum(1 for s in finished if s["deduped"])), "count")
    out["service.failed"] = (float(
        sum(1 for s in submits if s["error"])
        + sum(1 for s in finished if s["state"] != "done")), "count")
    return out

"""The ``repro serve`` asyncio HTTP/JSON API.

Endpoints
---------
===========================  ==============================================
``GET  /healthz``            liveness probe
``GET  /metricsz``           Prometheus text exposition of the process
                             metrics registry (histogram exemplars link
                             samples to trace spans)
``GET  /storez``             persistent-store counters + inventory, job
                             queue stats, in-flight dedupe gauge
``GET  /schemes``            registered scheme names
``GET  /workloads``          workload names
``POST /jobs``               submit ``{"kind": "run"|"compare"|"bench",
                             "params": {...}}``; 202 with the job record,
                             429 when the queue is full
``GET  /jobs``               every job (without results)
``GET  /jobs/<id>``          one job, result included when finished
``GET  /jobs/<id>/events``   the job's JSONL lifecycle event stream
``DELETE /jobs/<id>``        cancel a *queued* job (409 once running)
===========================  ==============================================

Job parameters are normalised (defaults filled, names validated) before
fingerprinting, so two submissions that differ only in spelled-out
defaults share one fingerprint — and therefore one simulation, through
the queue's single-flight dedupe and the sharded persistent store.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..experiments import store as result_store
from ..experiments.parallel import run_many
from ..experiments.runner import load_simulator, scheme_names
from ..obs.bench import DIGEST_COUNTERS
from ..obs.metrics import REGISTRY, inc, render_metrics, set_gauge
from ..obs.tracing import TRACE_HEADER, TRACER, TraceContext
from ..workloads import workload_names
from .httpio import (
    ProtocolError,
    Request,
    TextBody,
    json_response,
    read_request,
    text_response,
)
from .jobs import Job, JobQueue, QueueFullError

#: Bounds for submitted trace lengths: a service shared by many clients
#: must not accept a request that pins a worker for hours.
MAX_RECORDS = 2_000_000

JOB_KINDS = ("run", "compare", "bench")


class BadRequest(ValueError):
    """Invalid job submission; reported to the client as a 400."""


def stats_digest(stats) -> Tuple[Dict[str, int], str]:
    """The behaviour digest and its hash for one run's statistics.

    Two clients receiving results for the same fingerprint can compare
    ``digest_sha`` for bit-identity without shipping every counter.
    """
    digest = {name: int(getattr(stats, name)) for name in DIGEST_COUNTERS}
    payload = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return digest, hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- job parameter normalisation -------------------------------------------

def _norm_common(params: Dict[str, Any]) -> Dict[str, Any]:
    try:
        n_records = int(params.get("n_records", 30_000))
        scale = float(params.get("scale", 1.0))
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad n_records/scale: {exc}") from None
    if not 0 < n_records <= MAX_RECORDS:
        raise BadRequest(
            f"n_records must be in (0, {MAX_RECORDS}], got {n_records}")
    if scale <= 0:
        raise BadRequest(f"scale must be positive, got {scale}")
    jobs = params.get("jobs")
    return {"n_records": n_records, "scale": scale,
            "jobs": int(jobs) if jobs is not None else None}


def _norm_workload(params: Dict[str, Any]) -> str:
    workload = params.get("workload", "web_apache")
    if workload not in workload_names():
        raise BadRequest(f"unknown workload {workload!r}")
    return workload


def _norm_scheme(name: Any) -> str:
    if name not in scheme_names():
        raise BadRequest(f"unknown scheme {name!r}")
    return name


def normalise_params(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a submission and fill defaults (fingerprint input)."""
    if not isinstance(params, dict):
        raise BadRequest("params must be a JSON object")
    if kind == "run":
        return {
            **_norm_common(params),
            "workload": _norm_workload(params),
            "scheme": _norm_scheme(params.get("scheme", "sn4l_dis_btb")),
            "baseline": bool(params.get("baseline", True)),
        }
    if kind == "compare":
        schemes = params.get("schemes",
                             ["n4l", "sn4l", "sn4l_dis", "sn4l_dis_btb"])
        if isinstance(schemes, str):
            schemes = [s for s in schemes.split(",") if s]
        if not schemes:
            raise BadRequest("compare needs at least one scheme")
        return {
            **_norm_common(params),
            "workload": _norm_workload(params),
            "schemes": [_norm_scheme(s) for s in schemes],
        }
    if kind == "bench":
        from ..obs.bench import MATRICES
        matrix = params.get("matrix", "small")
        if matrix not in MATRICES:
            raise BadRequest(f"unknown bench matrix {matrix!r}")
        try:
            repeats = int(params.get("repeats", 1))
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad repeats: {exc}") from None
        if not 0 < repeats <= 10:
            raise BadRequest(f"repeats must be in [1, 10], got {repeats}")
        return {"matrix": matrix, "repeats": repeats}
    raise BadRequest(
        f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}")


def job_fingerprint(kind: str, params: Dict[str, Any]) -> str:
    """Content fingerprint of a normalised job (code salt included)."""
    return result_store.fingerprint(
        {"kind": "service-job", "job_kind": kind, "params": params})


# -- job executors (run in worker threads) ---------------------------------

def _run_result(result, base=None) -> Dict[str, Any]:
    stats = result.stats
    digest, sha = stats_digest(stats)
    payload: Dict[str, Any] = {
        "workload": result.workload,
        "scheme": result.scheme,
        "summary": stats.summary(),
        "digest": digest,
        "digest_sha": sha,
        "ipc": stats.ipc,
        "cmal": stats.cmal,
        "accuracy": stats.prefetch_accuracy,
        "extra": dict(result.extra),
    }
    if base is not None:
        payload["speedup"] = stats.speedup_over(base.stats)
        payload["coverage"] = stats.coverage_over(base.stats)
        payload["fscr"] = stats.fscr_over(base.stats)
    return payload


def execute_job(job: Job, emit: Callable[..., None]) -> Dict[str, Any]:
    """Run one job to completion (worker thread).

    Fans out through :func:`run_many`, which serves warm fingerprints
    from the in-process memo or the sharded persistent store and seeds
    both for every other client of this service.
    """
    params = job.params

    def progress(result) -> None:
        emit("spec_done", workload=result.workload, scheme=result.scheme)

    if job.kind == "run":
        specs: List[Tuple[str, str]] = []
        if params["baseline"]:
            specs.append((params["workload"], "baseline"))
        specs.append((params["workload"], params["scheme"]))
        results = run_many(specs, jobs=params["jobs"], progress=progress,
                           n_records=params["n_records"],
                           scale=params["scale"])
        base = results[0] if params["baseline"] else None
        payload = _run_result(results[-1], base)
        payload.update(n_records=params["n_records"],
                       scale=params["scale"])
        return payload

    if job.kind == "compare":
        specs = [(params["workload"], s)
                 for s in ["baseline"] + list(params["schemes"])]
        results = run_many(specs, jobs=params["jobs"], progress=progress,
                           n_records=params["n_records"],
                           scale=params["scale"])
        base = results[0]
        return {
            "workload": params["workload"],
            "n_records": params["n_records"],
            "scale": params["scale"],
            "baseline": base.stats.summary(),
            "schemes": {result.scheme: _run_result(result, base)
                        for result in results[1:]},
        }

    if job.kind == "bench":
        from ..obs.bench import append_history, resolve_matrix, run_cell
        records = []
        for cell in resolve_matrix(params["matrix"]):
            record = run_cell(cell, repeats=params["repeats"])
            append_history(record)
            emit("cell_done", cell=record["cell"],
                 mean_records_per_sec=record["mean_records_per_sec"])
            records.append(record)
        return {"matrix": params["matrix"], "records": records}

    raise BadRequest(f"unknown job kind {job.kind!r}")


# -- the server -------------------------------------------------------------

class ReproService:
    """The long-running simulation service (one per process).

    >>> service = ReproService(port=0)        # doctest: +SKIP
    ... await service.start()
    ... host, port = service.address
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, queue_size: int = 64,
                 budget_bytes: Optional[int] = None,
                 execute: Optional[Callable] = None):
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_size = queue_size
        self.budget_bytes = budget_bytes
        self._execute = execute if execute is not None else execute_job
        self.queue: Optional[JobQueue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------

    def events_dir(self) -> Path:
        return result_store.cache_root() / "service" / "jobs"

    async def start(self) -> None:
        # Before any job worker exists: a job thread then never imports
        # the simulator while another one forks a pool.
        load_simulator()
        store = result_store.get_store()
        if store is not None and self.budget_bytes is not None:
            store.set_budget(self.budget_bytes)
        self.queue = JobQueue(self._execute, workers=self.workers,
                              queue_size=self.queue_size,
                              events_dir=self.events_dir())
        await self.queue.start()
        REGISTRY.add_collector(self._queue_collector)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        REGISTRY.remove_collector(self._queue_collector)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.queue is not None:
            await self.queue.close()

    def _queue_collector(self) -> None:
        """Refresh the queue gauges before every ``/metricsz`` render."""
        queue = self.queue
        if queue is None:
            return
        stats = queue.stats()
        set_gauge("repro_job_queue_depth", float(stats["state_queued"]))
        set_gauge("repro_jobs_running", float(stats["state_running"]))
        set_gauge("repro_jobs_inflight", float(stats["inflight"]))

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(json_response(400, {"error": str(exc)}))
                return
            if request is None:
                return
            # A propagated trace context (the client's X-Repro-Trace
            # header) makes this request a child span of the caller's;
            # without the header the request is served untraced — the
            # *client* is the sampling decision point.
            ctx = TraceContext.from_header(
                request.headers.get(TRACE_HEADER.lower(), ""))
            if ctx is not None:
                with TRACER.span("http.request", parent=ctx,
                                 attrs={"method": request.method,
                                        "path": request.path}) as span:
                    status, payload = await self._dispatch(request)
                    if span is not None:
                        span.attrs["status"] = status
            else:
                status, payload = await self._dispatch(request)
            inc("repro_http_requests_total",
                labels={"method": request.method, "status": str(status)})
            if isinstance(payload, TextBody):
                writer.write(text_response(status, payload))
            else:
                writer.write(json_response(status, payload))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing -------------------------------------------------------

    async def _dispatch(self, request: Request) -> Tuple[int, Any]:
        """Route one request, mapping expected failures to statuses."""
        try:
            return await self._route(request)
        except BadRequest as exc:
            return 400, {"error": str(exc)}
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:            # noqa: BLE001 - boundary
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _route(self, request: Request) -> Tuple[int, Any]:
        # Runs on the event loop: anything that touches the disk (the
        # JSONL event streams, the store's counters and on-disk
        # overview, fingerprint hashing over params) is pushed to a
        # worker thread, while every queue mutation stays on the loop —
        # asyncio.Queue is not thread-safe.
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if method == "GET":
            if path == "/healthz":
                return 200, {"ok": True}
            if path == "/metricsz":
                # Pure in-memory render (collectors refresh gauges from
                # loop-owned state) — no to_thread needed.
                return 200, TextBody(render_metrics())
            if path == "/storez":
                return 200, await self._storez()
            if path == "/schemes":
                return 200, {"schemes": sorted(scheme_names())}
            if path == "/workloads":
                return 200, {"workloads": list(workload_names())}
            if path == "/jobs":
                assert self.queue is not None
                return 200, {"jobs": [j.as_dict(include_result=False)
                                      for j in self.queue.jobs()]}
            if len(parts) == 2 and parts[0] == "jobs":
                return self._job_status(parts[1])
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "events":
                assert self.queue is not None
                queue = self.queue
                if queue.get(parts[1]) is None:
                    return 404, {"error": f"no such job {parts[1]!r}"}
                events = await asyncio.to_thread(queue.events, parts[1])
                return 200, {"job": parts[1], "events": events}
            return 404, {"error": f"no such endpoint {path!r}"}

        if method == "POST":
            if path == "/jobs":
                return await self._submit(request)
            return 404, {"error": f"no such endpoint {path!r}"}

        if method == "DELETE":
            if len(parts) == 2 and parts[0] == "jobs":
                return self._cancel(parts[1])
            return 404, {"error": f"no such endpoint {path!r}"}

        return 405, {"error": f"method {method} not allowed"}

    async def _submit(self, request: Request) -> Tuple[int, Any]:
        assert self.queue is not None
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequest('body must be {"kind": ..., "params": {...}}')
        kind = body.get("kind")
        params = normalise_params(kind, body.get("params") or {})
        # The fingerprint folds a salt over the simulator sources into
        # the hash, which means reading files — not loop work.
        fingerprint = await asyncio.to_thread(job_fingerprint, kind, params)
        job = self.queue.submit(kind, params, fingerprint,
                                trace=TRACER.current())
        return 202, {"job": job.as_dict(include_result=False)}

    def _job_status(self, job_id: str) -> Tuple[int, Any]:
        assert self.queue is not None
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"no such job {job_id!r}"}
        return 200, {"job": job.as_dict()}

    def _cancel(self, job_id: str) -> Tuple[int, Any]:
        assert self.queue is not None
        outcome = self.queue.cancel(job_id)
        if outcome == "missing":
            return 404, {"error": f"no such job {job_id!r}"}
        if outcome == "cancelled":
            return 200, {"job": job_id, "state": "cancelled"}
        return 409, {"error": f"job {job_id} is {outcome}; only queued "
                              f"jobs can be cancelled", "state": outcome}

    @staticmethod
    def _store_info() -> Dict[str, Any]:
        """Store counters plus the on-disk overview; runs off-loop —
        ``overview()`` stats every cache entry."""
        from ..obs.telemetry import store_event_counts
        store = result_store.get_store()
        info: Dict[str, Any] = {
            "enabled": store is not None,
            "root": str(result_store.cache_root()),
        }
        if store is not None:
            info["counters"] = store.counters()
            info["overview"] = store.overview()
        info["events"] = store_event_counts()
        return info

    async def _storez(self) -> Dict[str, Any]:
        info = await asyncio.to_thread(self._store_info)
        assert self.queue is not None
        return {"store": info, "jobs": self.queue.stats()}


# -- embedding helpers ------------------------------------------------------

class ServiceHandle:
    """A service running on a background thread (tests, smoke drivers)."""

    def __init__(self, service: ReproService, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.service = service
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        assert self.service.address is not None
        return self.service.address

    def close(self, timeout: float = 10.0) -> None:
        async def shutdown() -> None:
            await self.service.close()
        future = asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_in_thread(timeout: float = 10.0, **kwargs) -> ServiceHandle:
    """Start a :class:`ReproService` on a daemon thread and wait for it.

    The caller's process keeps its main thread (pytest, a driver
    script); the service loop runs beside it.  Returns once the socket
    is bound, so ``handle.address`` is immediately connectable.
    """
    service = ReproService(**kwargs)
    started = threading.Event()
    failure: List[BaseException] = []
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            try:
                await service.start()
            except BaseException as exc:   # noqa: BLE001 - surfaced below
                failure.append(exc)
                raise
            finally:
                started.set()

        try:
            loop.run_until_complete(boot())
            loop.run_forever()
        except BaseException:
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("repro service failed to start in time")
    if failure:
        raise RuntimeError(f"repro service failed to start: {failure[0]}")
    return ServiceHandle(service, loop, thread)

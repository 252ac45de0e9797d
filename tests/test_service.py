"""The ``repro serve`` service: round-trips, dedupe, backpressure.

Two layers of tests:

* :class:`JobQueue` driven directly under ``asyncio.run`` with fake
  executors — deterministic single-flight dedupe, cancellation and
  backpressure semantics without simulation cost;
* a real service booted on an ephemeral port via
  :func:`serve_in_thread`, driven through :class:`ServiceClient` —
  the acceptance round-trip over every matrix scheme, concurrent
  duplicate submissions hitting one store write, and the ``/storez``
  counters.
"""

import asyncio
import threading

import pytest

from repro.experiments import runner, store
from repro.obs.metrics import REGISTRY, parse_prometheus_text
from repro.service import (
    Job,
    JobQueue,
    QueueFullError,
    ServiceClient,
    ServiceError,
    serve_in_thread,
)
from repro.service.jobs import CANCELLED, DONE, FAILED, QUEUED, RUNNING
from repro.service.server import (
    BadRequest,
    ReproService,
    job_fingerprint,
    normalise_params,
)
from repro.workloads import tracegen

RECORDS = 3_000
SCALE = 0.3

#: The four schemes the acceptance round-trip must cover.
MATRIX_SCHEMES = ("baseline", "sn4l", "sn4l_dis", "sn4l_dis_btb")


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    monkeypatch.delenv(store.ENV_CACHE_BUDGET, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    yield store.get_store()
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()


# -- JobQueue semantics (fake executors, no simulation) ----------------------

def _submit(queue: JobQueue, tag: str, fingerprint=None) -> Job:
    return queue.submit("run", {"tag": tag},
                        fingerprint or f"fp-{tag}")


class TestJobQueue:
    def test_single_flight_dedupe_executes_once(self):
        """Two overlapping jobs with one fingerprint: one execution,
        the follower awaits the leader's published result."""
        release = threading.Event()
        executions = []

        def execute(job, emit):
            executions.append(job.id)
            assert release.wait(timeout=30)
            return {"value": 42}

        async def scenario():
            queue = JobQueue(execute, workers=2)
            await queue.start()
            try:
                a = _submit(queue, "a", fingerprint="shared")
                b = _submit(queue, "b", fingerprint="shared")
                # Wait until the leader is inside the executor, then
                # give the follower a chance to take the dedupe path.
                while not executions:
                    await asyncio.sleep(0.01)
                while queue.get(b.id).state == QUEUED:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)
                release.set()
                while not (queue.get(a.id).state == DONE
                           and queue.get(b.id).state == DONE):
                    await asyncio.sleep(0.01)
                return queue, a, b
            finally:
                await queue.close()

        queue, a, b = asyncio.run(scenario())
        assert executions == [a.id]
        assert queue.get(a.id).result == {"value": 42}
        assert queue.get(b.id).result == {"value": 42}
        assert queue.get(b.id).deduped is True
        assert queue.get(a.id).deduped is False
        assert queue.deduped == 1 and queue.completed == 2

    def test_leader_failure_propagates_to_follower(self):
        release = threading.Event()

        def execute(job, emit):
            assert release.wait(timeout=30)
            raise ValueError("boom")

        async def scenario():
            queue = JobQueue(execute, workers=2)
            await queue.start()
            try:
                a = _submit(queue, "a", fingerprint="shared")
                b = _submit(queue, "b", fingerprint="shared")
                while queue.get(b.id).state == QUEUED:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)
                release.set()
                while queue.get(b.id).state not in (DONE, FAILED):
                    await asyncio.sleep(0.01)
                while queue.get(a.id).state not in (DONE, FAILED):
                    await asyncio.sleep(0.01)
                return queue, a, b
            finally:
                await queue.close()

        queue, a, b = asyncio.run(scenario())
        assert queue.get(a.id).state == FAILED
        assert queue.get(b.id).state == FAILED
        assert "boom" in queue.get(a.id).error
        assert "boom" in queue.get(b.id).error
        assert queue.failed == 2

    def test_backpressure_raises_queue_full(self):
        release = threading.Event()

        def execute(job, emit):
            assert release.wait(timeout=30)
            return {}

        async def scenario():
            queue = JobQueue(execute, workers=1, queue_size=1)
            await queue.start()
            try:
                running = _submit(queue, "running")
                while queue.get(running.id).state == QUEUED:
                    await asyncio.sleep(0.01)
                _submit(queue, "waiting")       # fills the bounded queue
                with pytest.raises(QueueFullError, match="full"):
                    _submit(queue, "rejected")
                release.set()
            finally:
                release.set()
                await queue.close()

        asyncio.run(scenario())

    def test_cancel_queued_job(self):
        release = threading.Event()

        def execute(job, emit):
            assert release.wait(timeout=30)
            return {}

        async def scenario():
            queue = JobQueue(execute, workers=1)
            await queue.start()
            try:
                running = _submit(queue, "running")
                while queue.get(running.id).state == QUEUED:
                    await asyncio.sleep(0.01)
                queued = _submit(queue, "queued")
                assert queue.cancel(queued.id) == CANCELLED
                assert queue.cancel(running.id) == RUNNING
                assert queue.cancel("job-999999") == "missing"
                release.set()
                while queue.get(running.id).state != DONE:
                    await asyncio.sleep(0.01)
                # The cancelled job is skipped, never executed.
                assert queue.get(queued.id).state == CANCELLED
                assert queue.get(queued.id).result is None
                stats = queue.stats()
                assert stats["cancelled"] == 1
                assert stats["completed"] == 1
            finally:
                release.set()
                await queue.close()

        asyncio.run(scenario())


# -- parameter normalisation / fingerprints ----------------------------------

class TestNormaliseParams:
    def test_run_defaults_filled(self):
        params = normalise_params("run", {})
        assert params["workload"] == "web_apache"
        assert params["scheme"] == "sn4l_dis_btb"
        assert params["baseline"] is True

    def test_spelled_defaults_share_a_fingerprint(self):
        bare = normalise_params("run", {})
        spelled = normalise_params("run", {"workload": "web_apache",
                                           "scheme": "sn4l_dis_btb",
                                           "n_records": 30_000,
                                           "scale": 1.0, "baseline": True})
        assert job_fingerprint("run", bare) == job_fingerprint("run", spelled)

    def test_compare_accepts_comma_string(self):
        params = normalise_params("compare", {"schemes": "sn4l,sn4l_dis"})
        assert params["schemes"] == ["sn4l", "sn4l_dis"]

    @pytest.mark.parametrize("kind,params", [
        ("run", {"workload": "no_such_workload"}),
        ("run", {"scheme": "no_such_scheme"}),
        ("run", {"n_records": 0}),
        ("run", {"n_records": 10**9}),
        ("run", {"scale": -1}),
        ("run", {"n_records": "many"}),
        ("compare", {"schemes": []}),
        ("bench", {"matrix": "no_such_matrix"}),
        ("bench", {"repeats": 0}),
        ("mine_bitcoin", {}),
    ])
    def test_rejections(self, kind, params):
        with pytest.raises(BadRequest):
            normalise_params(kind, params)

    def test_params_must_be_object(self):
        with pytest.raises(BadRequest):
            normalise_params("run", ["not", "a", "dict"])


# -- the real service over HTTP ----------------------------------------------

class TestServiceRoundtrip:
    """One booted service, real simulations (small traces)."""

    @pytest.fixture()
    def client(self, fresh_cache):
        with serve_in_thread(workers=2, queue_size=16) as handle:
            host, port = handle.address
            yield ServiceClient(host, port, timeout=120.0)

    def test_health_and_discovery(self, client):
        assert client.health() == {"ok": True}
        assert "sn4l_dis_btb" in client.schemes()
        assert "web_apache" in client.workloads()

    def test_roundtrip_all_matrix_schemes(self, client, fresh_cache):
        digests = {}
        for scheme in MATRIX_SCHEMES:
            job_id = client.submit("run", workload="web_apache",
                                   scheme=scheme, n_records=RECORDS,
                                   scale=SCALE, baseline=False)
            job = client.wait(job_id, timeout=300)
            assert job["state"] == "done"
            result = job["result"]
            assert result["scheme"] == scheme
            assert result["digest_sha"]
            assert result["summary"]["cycles"] > 0
            assert result["digest"]["instructions"] > 0
            digests[scheme] = result["digest_sha"]
            events = [e["event"] for e in client.events(job_id)]
            assert events[0] == "queued"
            assert "started" in events and "done" in events
        # Four distinct schemes, four distinct behaviours.
        assert len(set(digests.values())) == len(MATRIX_SCHEMES)

    def test_run_with_baseline_reports_speedup(self, client):
        job_id = client.submit("run", workload="web_apache", scheme="sn4l",
                               n_records=RECORDS, scale=SCALE)
        job = client.wait(job_id, timeout=300)
        assert job["result"]["speedup"] > 1.0
        assert 0.0 <= job["result"]["coverage"] <= 1.0

    def test_concurrent_duplicates_one_write(self, client, fresh_cache):
        """Acceptance: N identical submissions, exactly one result
        write, bit-identical digests for every client."""
        params = dict(workload="web_zeus", scheme="sn4l_dis",
                      n_records=RECORDS, scale=SCALE, baseline=False)
        sims_before = REGISTRY.totals().get("repro_runs_total", 0)
        ids = [client.submit("run", **params) for _ in range(4)]
        jobs = [client.wait(job_id, timeout=300) for job_id in ids]
        digests = {job["result"]["digest_sha"] for job in jobs}
        assert len(digests) == 1
        assert REGISTRY.totals()["repro_runs_total"] == sims_before + 1
        result_files = [
            p for p in (fresh_cache.root / "results").glob("*/*.json")
            if not p.name.endswith(".manifest.json")]
        assert len(result_files) == 1
        fingerprints = {job["fingerprint"] for job in jobs}
        assert len(fingerprints) == 1

    def test_compare_roundtrip(self, client):
        job_id = client.submit("compare", workload="web_apache",
                               schemes=["sn4l", "sn4l_dis"],
                               n_records=RECORDS, scale=SCALE)
        job = client.wait(job_id, timeout=300)
        per_scheme = job["result"]["schemes"]
        assert sorted(per_scheme) == ["sn4l", "sn4l_dis"]
        for payload in per_scheme.values():
            assert payload["speedup"] > 0

    def test_storez_counters(self, client, fresh_cache):
        client.submit("run", workload="web_apache", scheme="baseline",
                      n_records=RECORDS, scale=SCALE, baseline=False)
        payload = client.storez()
        assert payload["store"]["enabled"] is True
        assert payload["store"]["root"] == str(fresh_cache.root)
        for key in ("hits", "misses", "writes", "corrupt", "evicted",
                    "migrated"):
            assert key in payload["store"]["counters"]
        jobs = payload["jobs"]
        assert jobs["submitted"] >= 1
        assert jobs["capacity"] == 16

    def test_error_statuses(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit("run", workload="no_such_workload")
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.job("job-999999")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.request("GET", "/no/such/endpoint")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.request("PUT", "/jobs")
        assert exc.value.status == 405
        with pytest.raises(ServiceError) as exc:
            client.request("POST", "/jobs", {"kind": "run",
                                             "params": "nope"})
        assert exc.value.status == 400


class TestServiceControlPlane:
    """Cancellation and backpressure over HTTP with a gated executor."""

    @pytest.fixture()
    def gated(self, fresh_cache):
        release = threading.Event()

        def execute(job, emit):
            assert release.wait(timeout=60)
            return {"ran": job.kind}

        with serve_in_thread(workers=1, queue_size=1,
                             execute=execute) as handle:
            host, port = handle.address
            try:
                yield ServiceClient(host, port, timeout=60.0), release
            finally:
                release.set()

    def _wait_running(self, client, job_id):
        for _ in range(200):
            if client.job(job_id)["state"] == "running":
                return
            import time
            time.sleep(0.02)
        raise AssertionError(f"{job_id} never started")

    @staticmethod
    def _rejected(client) -> float:
        series = parse_prometheus_text(client.metricsz())
        return sum(v for _, v in series.get("repro_jobs_rejected_total", ()))

    def test_cancel_and_backpressure(self, gated):
        client, release = gated
        running = client.submit("run", n_records=RECORDS)
        self._wait_running(client, running)
        queued = client.submit("run", n_records=RECORDS,
                               workload="oltp_db_a")
        # A third submission overflows the size-1 queue: 429, counted
        # once in /metricsz.
        rejected = self._rejected(client)
        with pytest.raises(ServiceError) as exc:
            client.submit("run", n_records=RECORDS, workload="web_zeus")
        assert exc.value.status == 429
        assert self._rejected(client) == rejected + 1

        # Cancelling the queued job succeeds; the running one is 409.
        assert client.cancel(queued)["state"] == "cancelled"
        with pytest.raises(ServiceError) as exc:
            client.cancel(running)
        assert exc.value.status == 409
        with pytest.raises(ServiceError) as exc:
            client.cancel("job-999999")
        assert exc.value.status == 404

        release.set()
        job = client.wait(running, timeout=60)
        assert job["result"] == {"ran": "run"}
        assert client.job(queued)["state"] == "cancelled"
        listing = {j["id"]: j["state"] for j in client.jobs()}
        assert listing[running] == "done"
        assert listing[queued] == "cancelled"


class TestRoutingStaysOffLoop:
    """Regression for the ASY001 finding: ``_route`` reached blocking
    ``open()`` (event tails, fingerprinting, store overview) on the
    event loop.  The router is async now and offloads blocking leaves
    to worker threads; queue mutations stay on the loop."""

    def test_blocking_routes_are_coroutines(self):
        assert asyncio.iscoroutinefunction(ReproService._route)
        assert asyncio.iscoroutinefunction(ReproService._submit)
        assert asyncio.iscoroutinefunction(ReproService._storez)
        # The blocking half of /storez lives in a plain function so
        # asyncio.to_thread can carry it off the loop.
        assert not asyncio.iscoroutinefunction(ReproService._store_info)

    def test_control_plane_responds_while_executor_is_pinned(
            self, fresh_cache):
        """Event tails and /storez answer while the sole worker blocks —
        the file-reading routes must not ride on the loop thread."""
        release = threading.Event()

        def execute(job, emit):
            emit("pinned")
            assert release.wait(timeout=60)
            return {"ran": job.kind}

        with serve_in_thread(workers=1, queue_size=4,
                             execute=execute) as handle:
            host, port = handle.address
            client = ServiceClient(host, port, timeout=30.0)
            try:
                running = client.submit("run", n_records=RECORDS)
                for _ in range(10):
                    events = [e["event"] for e in client.events(running)]
                    assert events[0] == "queued"
                    payload = client.storez()
                    assert payload["jobs"]["submitted"] >= 1
                assert client.job(running)["state"] in (QUEUED, RUNNING)
            finally:
                release.set()
            assert client.wait(running, timeout=60)["state"] == DONE

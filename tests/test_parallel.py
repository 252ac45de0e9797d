"""Tests for the parallel experiment runner (experiments.parallel).

The host may have any number of cores; correctness is what these tests
pin down — ``jobs=2`` must produce bit-identical results to serial
execution, because every simulation is deterministic given its seed.
"""

import json
import os
import shutil
import warnings
from dataclasses import asdict

import pytest

from repro.experiments import parallel, runner
from repro.experiments.parallel import map_parallel, resolve_jobs, run_many
from repro.obs.metrics import REGISTRY
from repro.workloads import tracegen

RECORDS = 6_000
SCALE = 0.3


@pytest.fixture(autouse=True)
def _clean_caches(monkeypatch, tmp_path):
    # A private store per test: workers may write through it, and the
    # comparison runs must not read results the first leg persisted
    # under a different job count... which is fine (identical), but a
    # clean slate keeps hit/miss accounting meaningful.
    from repro.experiments import store
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    yield
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()


class TestResolveJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == 1  # floored

    def test_default_then_env(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "4")
        assert resolve_jobs() == 4
        parallel.set_default_jobs(2)
        try:
            assert resolve_jobs() == 2
        finally:
            parallel.set_default_jobs(None)
        assert resolve_jobs() == 4

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "many")
        monkeypatch.setattr(parallel, "_warned_values", set())
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
            assert resolve_jobs() == 1

    def test_empty_env_is_serial_and_silent(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "")
        monkeypatch.setattr(parallel, "_warned_values", set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == 1

    def test_unset_env_is_serial_and_silent(self, monkeypatch):
        monkeypatch.delenv(parallel.ENV_JOBS, raising=False)
        monkeypatch.setattr(parallel, "_warned_values", set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == 1

    def test_garbage_env_warns_naming_value(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "lots!")
        monkeypatch.setattr(parallel, "_warned_values", set())
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='lots!'"):
            assert resolve_jobs() == 1

    def test_garbage_env_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "nope")
        monkeypatch.setattr(parallel, "_warned_values", set())
        with pytest.warns(RuntimeWarning):
            resolve_jobs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == 1      # second hit: silent

    def test_negative_env_is_valid_and_floored(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "-3")
        monkeypatch.setattr(parallel, "_warned_values", set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == 1      # parses fine, floored to 1

    def test_valid_env_parses(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs() == 4


class TestRunMany:
    def test_parallel_matches_serial(self):
        specs = [("web_apache", "baseline"), ("web_apache", "nl"),
                 ("oltp_db_a", "baseline")]
        par = run_many(specs, jobs=2, n_records=RECORDS, scale=SCALE)
        runner.clear_cache()
        ser = run_many(specs, jobs=1, n_records=RECORDS, scale=SCALE)
        assert len(par) == len(ser) == len(specs)
        for a, b in zip(par, ser):
            assert (a.workload, a.scheme) == (b.workload, b.scheme)
            assert asdict(a.stats) == asdict(b.stats)

    def test_seeds_in_process_memo(self):
        run_many([("web_apache", "baseline"), ("web_apache", "nl")],
                 jobs=2, n_records=RECORDS, scale=SCALE)
        sims_before = REGISTRY.totals()["repro_runs_total"]
        runner.run_scheme("web_apache", "nl", n_records=RECORDS,
                          scale=SCALE)
        assert REGISTRY.totals()["repro_runs_total"] == sims_before

    def test_per_spec_params_and_dedup(self):
        specs = [("web_apache", "baseline"),
                 ("web_apache", "baseline"),   # duplicate: one worker run
                 ("web_apache", "sn4l_dis_btb",
                  {"config_overrides": {"btb_entries": 512}})]
        results = run_many(specs, jobs=2, n_records=RECORDS, scale=SCALE)
        assert asdict(results[0].stats) == asdict(results[1].stats)
        small_btb = results[2]
        runner.clear_cache()
        ser = runner.run_scheme("web_apache", "sn4l_dis_btb",
                                n_records=RECORDS, scale=SCALE,
                                config_overrides={"btb_entries": 512})
        assert asdict(small_btb.stats) == asdict(ser.stats)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            run_many([("web_apache",)], n_records=RECORDS, scale=SCALE)

    def test_worker_metrics_merge_into_parent(self):
        REGISTRY.reset_values()
        run_many([("web_apache", "baseline"), ("web_apache", "nl")],
                 jobs=2, n_records=RECORDS, scale=SCALE)
        # Each pool worker simulated once and shipped its snapshot home;
        # the parent ran no simulation of its own and, with every spec
        # delivered by the pool, counted no memo hit either.
        totals = REGISTRY.totals()
        assert totals["repro_runs_total"] == 2
        assert totals["repro_run_seconds_count"] == 2
        assert totals["repro_run_seconds_sum"] > 0
        assert totals["repro_pool_task_seconds_count"] == 2
        assert totals["repro_pool_seconds_count"] == 1
        assert 'repro_run_cache_hits_total{layer="memo"}' not in totals

    def test_progress_reports_memoised_specs_under_pool(self):
        """A spec already in the memo reports progress under a pool
        too, as the serial loop reports every spec."""
        specs = [("web_apache", "baseline"), ("web_apache", "nl"),
                 ("web_apache", "n4l")]
        reported = {}
        for jobs in (1, 2):
            runner.clear_cache()
            runner.run_scheme("web_apache", "baseline", n_records=RECORDS,
                              scale=SCALE, persistent=False)
            seen = []
            run_many(specs, jobs=jobs, n_records=RECORDS, scale=SCALE,
                     persistent=False, progress=seen.append)
            reported[jobs] = sorted((r.workload, r.scheme) for r in seen)
        assert reported[1] == reported[2] == sorted(specs)


class TestProgramBatches:
    @staticmethod
    def _payload(workload, scheme, scale=SCALE, variable_length=False):
        return (workload, scheme,
                {"scale": scale, "variable_length": variable_length}, None)

    def test_one_batch_per_program_largest_first(self):
        payloads = [self._payload(w, s)
                    for w in ("web_frontend", "web_apache", "oltp_db_a")
                    for s in ("baseline", "nl", "sn4l")]
        payloads.append(self._payload("oltp_db_a", "shotgun"))
        payloads.append(self._payload("oltp_db_a", "shotgun",
                                      variable_length=True))
        batches = parallel._program_batches(payloads, workers=2)
        # Largest build first; the two oltp_db_a programs tie on build
        # cost and the one with more specs leads.
        assert [(b[0][0], len(b)) for b in batches] == [
            ("oltp_db_a", 4), ("oltp_db_a", 1), ("web_apache", 3),
            ("web_frontend", 3)]
        for batch in batches:
            programs = {(w, p["scale"], p["variable_length"])
                        for w, _s, p, _leg in batch}
            assert len(programs) == 1
        assert sorted(map(id, (p for b in batches for p in b))) == \
            sorted(map(id, payloads))

    def test_fig16_batches_start_with_the_largest_build(self):
        # Fig. 16's cold render: three equal batches, which first-seen
        # order would start with web_frontend and end with oltp_db_a.
        payloads = [self._payload(w, s, scale=1.0)
                    for w in ("web_frontend", "web_apache", "oltp_db_a")
                    for s in ("baseline", "confluence", "boomerang",
                              "shotgun", "sn4l_dis_btb")]
        batches = parallel._program_batches(payloads, workers=2)
        assert [b[0][0] for b in batches] == [
            "oltp_db_a", "web_apache", "web_frontend"]
        assert [len(b) for b in batches] == [5, 5, 5]
        zeus = parallel._build_cost("web_zeus", 1.0)
        assert parallel._build_cost("web_frontend", 1.0) < zeus \
            < parallel._build_cost("web_apache", 1.0) \
            < parallel._build_cost("oltp_db_a", 1.0)

    def test_splits_until_every_worker_has_a_batch(self):
        payloads = [self._payload("web_apache", s)
                    for s in ("baseline", "nl", "sn4l")]
        batches = parallel._program_batches(payloads, workers=2)
        assert batches == [payloads[:2], payloads[2:]]
        assert parallel._bins(batches, 2) == batches
        # Never split below one spec per batch.
        assert len(parallel._program_batches(payloads[:1], workers=4)) == 1
        assert [len(b) for b in
                parallel._program_batches(payloads, workers=8)] == [1, 1, 1]


class TestBins:
    @staticmethod
    def _fig16(mid):
        return [TestProgramBatches._payload(w, s, scale=1.0)
                for w in ("web_frontend", mid, "oltp_db_a")
                for s in ("baseline", "confluence", "boomerang", "shotgun",
                          "sn4l_dis_btb")]

    @pytest.mark.parametrize("mid", ["web_apache", "web_zeus"])
    def test_fig16_schedule_is_fixed(self, mid):
        # The smallest program joins the mid-size one, never the
        # largest, whichever worker finishes first.
        payloads = self._fig16(mid)
        bins = parallel._bins(parallel._program_batches(payloads, 2), 2)
        assert [[p[0] for p in b[::5]] for b in bins] == [
            ["oltp_db_a"], [mid, "web_frontend"]]

    def test_one_bin_per_worker_each_program_whole(self):
        payloads = [TestProgramBatches._payload(w, s)
                    for w in ("web_frontend", "web_zeus", "web_apache",
                              "oltp_db_a", "oltp_db_b")
                    for s in ("baseline", "nl")]
        for workers in (1, 2, 3, 8):
            bins = parallel._bins(
                parallel._program_batches(payloads, workers), workers)
            assert len(bins) == workers
            assert sorted(map(id, (p for b in bins for p in b))) == \
                sorted(map(id, payloads))
            if workers > 5:
                continue    # more workers than programs: programs split
            owner = {}
            for i, b in enumerate(bins):
                for p in b:
                    assert owner.setdefault(p[0], i) == i


class TestPooledMetrics:
    SPECS = [("web_apache", "baseline"), ("web_apache", "nl"),
             ("oltp_db_a", "baseline")]

    @staticmethod
    def _engine_counts():
        from repro.obs.metrics import REGISTRY
        snap = REGISTRY.snapshot()

        def counter(name):
            return sum(row["value"] for row in snap["counters"][name])
        runs = snap["histograms"]["repro_run_seconds"]["series"]
        return (counter("repro_runs_total"),
                counter("repro_records_simulated_total"),
                sum(row["count"] for row in runs))

    def test_pooled_run_counts_match_serial(self):
        from repro.obs.metrics import REGISTRY
        REGISTRY.reset_values()
        run_many(self.SPECS, jobs=1, n_records=RECORDS, scale=SCALE,
                 persistent=False)
        serial = self._engine_counts()
        assert serial == (3, 3 * RECORDS, 3)
        runner.clear_cache()
        REGISTRY.reset_values()
        run_many(self.SPECS, jobs=2, n_records=RECORDS, scale=SCALE,
                 persistent=False)
        assert self._engine_counts() == serial

    def test_served_compare_counts_match_serial(self, tmp_path,
                                                monkeypatch):
        """The served leg: a compare job through ``repro serve`` shows
        the same engine counts in ``/metricsz`` as a serial run of its
        specs, whether the job runs them serially or through the pool."""
        from repro.experiments import store
        from repro.obs.metrics import REGISTRY, parse_prometheus_text
        from repro.service import ServiceClient, serve_in_thread

        schemes = ["nl", "n4l"]
        REGISTRY.reset_values()
        run_many([("web_apache", s) for s in ["baseline"] + schemes],
                 jobs=1, n_records=RECORDS, scale=SCALE, persistent=False)
        serial = self._engine_counts()
        assert serial == (3, 3 * RECORDS, 3)
        for jobs in (1, 2):
            monkeypatch.setenv(store.ENV_CACHE_DIR,
                               str(tmp_path / f"served-jobs{jobs}"))
            store.reset_store()
            runner.clear_cache()
            REGISTRY.reset_values()
            with serve_in_thread(workers=1) as handle:
                client = ServiceClient(*handle.address, timeout=120.0)
                job = client.wait(client.submit(
                    "compare", workload="web_apache", schemes=schemes,
                    n_records=RECORDS, scale=SCALE, jobs=jobs), timeout=300)
                parsed = parse_prometheus_text(client.metricsz())
            assert job["state"] == "done", job

            def total(series):
                return sum(v for _labels, v in parsed.get(series, []))
            served = (total("repro_runs_total"),
                      total("repro_records_simulated_total"),
                      total("repro_run_seconds_count"))
            assert served == serial, jobs

    def test_worker_snapshot_carries_no_gauges(self):
        key, _result, _s, metrics = parallel._run_payload(
            ("web_apache", "baseline",
             {"n_records": RECORDS, "scale": SCALE, "persistent": False},
             None))
        assert key == parallel._key("web_apache", "baseline",
                                    {"n_records": RECORDS, "scale": SCALE})
        assert "gauges" not in metrics
        assert metrics["counters"]["repro_runs_total"][0]["value"] == 1


class TestCountsAgreeAcrossModes:
    """Every tally of the runner and the store reads the same whether
    a spec ran serially, in a pool worker or behind ``repro serve``."""

    @staticmethod
    def _corrupt(scheme):
        """Overwrite ``scheme``'s persisted result with garbage."""
        from repro.experiments import store
        st = store.get_store()
        for manifest in st.iter_manifests():
            if manifest["scheme"] == scheme:
                st.result_path(manifest["fingerprint"]).write_text("{junk")
                return
        raise AssertionError(f"no stored result for {scheme}")

    def test_corrupt_entry_read_in_worker_is_counted(self):
        """Failure injection: a corrupt store entry read inside a pool
        worker is counted in the parent, as a serial read is."""
        from repro.obs.telemetry import store_event_counts

        specs = [("web_apache", "baseline"), ("web_apache", "nl")]
        run_many(specs, jobs=1, n_records=RECORDS, scale=SCALE)
        results = {}
        for jobs in (1, 2):
            runner.clear_cache()
            self._corrupt("nl")
            before = store_event_counts().get("corrupt", 0)
            results[jobs] = run_many(specs, jobs=jobs, n_records=RECORDS,
                                     scale=SCALE)
            assert store_event_counts()["corrupt"] == before + 1, jobs
        for a, b in zip(results[1], results[2]):
            assert asdict(a.stats) == asdict(b.stats)

    def test_store_counts_include_pool_workers(self, tmp_path,
                                               monkeypatch):
        """The store's session counts hold under a pool: on a fresh
        store ``jobs=2`` reads the misses and writes of ``jobs=1``, and
        the same hits on a warm re-run (per-process counters read 0 on
        the pooled legs: the workers' traffic stayed in the workers)."""
        from repro.experiments import store
        # Two programs, so two pool batches and no split batch: each
        # program's trace is missed and written once in either mode.
        specs = [("web_apache", "baseline"), ("web_apache", "nl"),
                 ("web_frontend", "baseline")]
        counts = {}
        for jobs in (1, 2):
            monkeypatch.setenv(store.ENV_CACHE_DIR,
                               str(tmp_path / f"jobs{jobs}"))
            legs = []
            for _leg in ("cold", "warm"):
                runner.clear_cache()
                tracegen.clear_cache()
                store.reset_store()
                run_many(specs, jobs=jobs, n_records=RECORDS, scale=SCALE)
                legs.append(store.get_store().counters())
            counts[jobs] = legs
        cold, warm = counts[1]
        # Three results and two traces missed and written, then three
        # result hits (a stored result needs no trace).
        assert (cold["misses"], cold["writes"], cold["hits"]) == (5, 5, 0)
        assert (warm["misses"], warm["writes"], warm["hits"]) == (0, 0, 3)
        assert counts[2] == counts[1]

    #: What the runner and the store tally per spec; every mode must
    #: read the same totals.
    RUNNER_SERIES = {
        "repro_runs_total": 1,
        "repro_records_simulated_total": RECORDS,
        "repro_run_seconds_count": 1,
        "repro_run_trace_seconds_count": 1,
        'repro_run_cache_hits_total{layer="memo"}': 1,
        'repro_run_cache_hits_total{layer="store"}': 1,
        'repro_store_events_total{kind="corrupt"}': 1,
    }

    @staticmethod
    def _scraped(text):
        """``/metricsz`` text keyed like :meth:`MetricsRegistry.totals`."""
        from repro.obs.metrics import parse_prometheus_text
        out = {}
        for name, rows in parse_prometheus_text(text).items():
            for labels, value in rows:
                inner = ",".join(f'{k}="{v}"'
                                 for k, v in sorted(labels.items()))
                out[f"{name}{{{inner}}}" if inner else name] = value
        return out

    def test_runner_counts_agree_in_every_mode(self, tmp_path, monkeypatch,
                                               capsys):
        """The same three specs — one memoised, one in the store, one
        behind a corrupt store entry — run serially, with ``jobs=2`` and
        as a served compare job (``jobs=1`` and ``jobs=2``).  Every
        mode reads the same runner and store totals in ``REGISTRY``,
        in ``/metricsz`` and in ``repro stats --json``."""
        from repro import cli
        from repro.experiments import store
        from repro.obs.metrics import render_metrics
        from repro.service import ServiceClient, serve_in_thread

        schemes = ["nl", "n4l"]
        specs = [("web_apache", s) for s in ["baseline"] + schemes]
        template = tmp_path / "template"
        monkeypatch.setenv(store.ENV_CACHE_DIR, str(template))
        store.reset_store()
        run_many(specs, jobs=1, n_records=RECORDS, scale=SCALE)
        self._corrupt("n4l")

        def run_served(jobs):
            with serve_in_thread(workers=1) as handle:
                client = ServiceClient(*handle.address, timeout=120.0)
                job = client.wait(client.submit(
                    "compare", workload="web_apache", schemes=schemes,
                    n_records=RECORDS, scale=SCALE, jobs=jobs), timeout=300)
                assert job["state"] == "done", job
                return client.metricsz()

        def run_direct(jobs):
            run_many(specs, jobs=jobs, n_records=RECORDS, scale=SCALE)
            return render_metrics()

        modes = {"serial": (run_direct, 1), "jobs2": (run_direct, 2),
                 "served1": (run_served, 1), "served2": (run_served, 2)}
        for mode, (run, jobs) in modes.items():
            root = tmp_path / mode
            shutil.copytree(template, root)
            monkeypatch.setenv(store.ENV_CACHE_DIR, str(root))
            store.reset_store()
            runner.clear_cache()
            runner.run_scheme("web_apache", "baseline", n_records=RECORDS,
                              scale=SCALE)
            REGISTRY.reset_values()
            scraped = self._scraped(run(jobs))
            capsys.readouterr()
            assert cli.main(["stats", "--json"]) == 0
            profile = json.loads(capsys.readouterr().out)["profile"]
            for surface, totals in (("registry", REGISTRY.totals()),
                                    ("metricsz", scraped),
                                    ("stats", profile)):
                got = {k: totals.get(k, 0) for k in self.RUNNER_SERIES}
                assert got == self.RUNNER_SERIES, (mode, surface)


def crash_in_worker(parent_pid):
    """A scheme constructor that kills any process but ``parent_pid``
    and builds no prefetcher there."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return None


class TestBrokenPool:
    def test_worker_crash_falls_back_to_serial(self, monkeypatch):
        """A pool worker dying mid-batch loses its whole batch; the
        serial fallback must still return every spec exactly once,
        equal to a serial run, and count the broken pool."""
        monkeypatch.setitem(
            runner.SCHEMES, "crash_in_worker",
            (f"{__name__}.crash_in_worker", {"parent_pid": os.getpid()}, {}))
        specs = [("web_apache", "baseline"), ("web_apache", "nl"),
                 ("web_apache", "crash_in_worker"),
                 ("oltp_db_a", "baseline"), ("oltp_db_a", "nl"),
                 ("web_apache", "baseline")]
        REGISTRY.reset_values()
        reported = []
        pooled = run_many(specs, jobs=2, n_records=RECORDS, scale=SCALE,
                          persistent=False, progress=reported.append)
        assert REGISTRY.totals()["repro_pool_broken_total"] == 1
        # Every unique spec reports progress exactly once, whether the
        # pool delivered it before breaking or the fallback re-ran it.
        assert sorted((r.workload, r.scheme) for r in reported) == \
            sorted(set(specs))
        runner.clear_cache()
        serial = run_many(specs, jobs=1, n_records=RECORDS, scale=SCALE,
                          persistent=False)
        assert [(r.workload, r.scheme) for r in pooled] == \
            [(w, s) for w, s in specs]
        for a, b in zip(pooled, serial):
            assert asdict(a.stats) == asdict(b.stats)


class TestMapParallel:
    def test_order_preserved(self):
        items = list(range(7))
        assert map_parallel(_square, items, jobs=2) == \
            [i * i for i in items]

    def test_serial_fallback(self):
        assert map_parallel(_square, [3], jobs=8) == [9]


def _square(x):
    return x * x


class TestSamplingParallel:
    def test_sampled_matches_serial(self):
        from repro.experiments import run_sampled
        par = run_sampled("web_apache", "nl", n_samples=3,
                          n_records=5_000, scale=SCALE, jobs=2)
        ser = run_sampled("web_apache", "nl", n_samples=3,
                          n_records=5_000, scale=SCALE, jobs=1)
        assert set(par.metrics) == set(ser.metrics)
        for name, metric in par.metrics.items():
            assert metric.samples == ser.metrics[name].samples


class TestMulticoreParallel:
    def test_build_mix_matches_serial(self):
        from repro.multicore import STANDARD_MIXES, build_mix
        mix = STANDARD_MIXES["webfarm4"]
        par_traces, par_programs = build_mix(mix, n_records=3_000,
                                             scale=SCALE, jobs=2)
        ser_traces, ser_programs = build_mix(mix, n_records=3_000,
                                             scale=SCALE, jobs=1)
        assert len(par_traces) == len(ser_traces) == mix.n_cores
        for tp, ts in zip(par_traces, ser_traces):
            assert len(tp) == len(ts)
            assert all(a.line == b.line and a.taken == b.taken
                       for a, b in zip(tp, ts))
        assert par_programs == ser_programs

    def test_from_mix_runs(self):
        from repro.multicore import STANDARD_MIXES, MulticoreSimulator
        sim = MulticoreSimulator.from_mix(STANDARD_MIXES["web4"],
                                          n_records=2_000, scale=SCALE,
                                          jobs=2)
        result = sim.run(warmup=500)
        assert len(result.cores) == 4
        assert result.total_instructions > 0


class TestFigureDriverParallel:
    def test_fig03_matches_serial(self):
        from repro.experiments import figures
        par = figures.fig03_nl_seq_coverage(workloads=["web_apache"],
                                            n_records=RECORDS, jobs=2)
        runner.clear_cache()
        ser = figures.fig03_nl_seq_coverage(workloads=["web_apache"],
                                            n_records=RECORDS, jobs=1)
        assert par == ser

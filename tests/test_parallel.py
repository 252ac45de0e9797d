"""Tests for the parallel experiment runner (experiments.parallel).

The host may have any number of cores; correctness is what these tests
pin down — ``jobs=2`` must produce bit-identical results to serial
execution, because every simulation is deterministic given its seed.
"""

import os
import warnings
from dataclasses import asdict

import pytest

from repro.experiments import parallel, runner
from repro.experiments.parallel import map_parallel, resolve_jobs, run_many
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
        sims_before = runner.simulations_run
        runner.run_scheme("web_apache", "nl", n_records=RECORDS,
                          scale=SCALE)
        assert runner.simulations_run == sims_before

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

    def test_worker_profiles_merge_into_parent(self):
        from repro.obs import PROFILER
        PROFILER.reset()
        run_many([("web_apache", "baseline"), ("web_apache", "nl")],
                 jobs=2, n_records=RECORDS, scale=SCALE)
        # Each pool worker simulated once and shipped its profiler
        # snapshot home; the parent ran no simulation of its own (both
        # results come back through the seeded memo).
        assert PROFILER.counters["run_scheme.simulations"] == 2
        spans = PROFILER.snapshot()["spans"]
        assert spans["run_scheme.simulate"]["count"] == 2
        assert spans["run_scheme.simulate"]["total_s"] > 0


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
        assert [len(b) for b in batches] == [4, 3, 3, 1]
        for batch in batches:
            programs = {(w, p["scale"], p["variable_length"])
                        for w, _s, p, _leg in batch}
            assert len(programs) == 1
        assert sorted(map(id, (p for b in batches for p in b))) == \
            sorted(map(id, payloads))

    def test_splits_until_every_worker_has_a_batch(self):
        payloads = [self._payload("web_apache", s)
                    for s in ("baseline", "nl", "sn4l")]
        batches = parallel._program_batches(payloads, workers=2)
        assert batches == [payloads[:2], payloads[2:]]
        # Never split below one spec per batch.
        assert len(parallel._program_batches(payloads[:1], workers=4)) == 1
        assert [len(b) for b in
                parallel._program_batches(payloads, workers=8)] == [1, 1, 1]


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

    def test_worker_snapshot_carries_no_gauges(self):
        key, _result, _s, _prof, _spans, metrics = parallel._run_payload(
            ("web_apache", "baseline",
             {"n_records": RECORDS, "scale": SCALE, "persistent": False},
             None))
        assert key == parallel._key("web_apache", "baseline",
                                    {"n_records": RECORDS, "scale": SCALE})
        assert "gauges" not in metrics
        assert metrics["counters"]["repro_runs_total"][0]["value"] == 1


class TestBrokenPool:
    def test_worker_crash_falls_back_to_serial(self, monkeypatch):
        """A pool worker dying mid-batch loses its whole batch; the
        serial fallback must still return every spec exactly once,
        equal to a serial run, and count the broken pool."""
        from repro.obs import PROFILER
        test_pid = os.getpid()

        def crash_in_worker():
            if os.getpid() != test_pid:
                os._exit(1)
            return runner.SCHEMES["baseline"]()

        monkeypatch.setitem(runner.SCHEMES, "crash_in_worker",
                            crash_in_worker)
        specs = [("web_apache", "baseline"), ("web_apache", "nl"),
                 ("web_apache", "crash_in_worker"),
                 ("oltp_db_a", "baseline"), ("oltp_db_a", "nl"),
                 ("web_apache", "baseline")]
        PROFILER.reset()
        pooled = run_many(specs, jobs=2, n_records=RECORDS, scale=SCALE,
                          persistent=False)
        assert PROFILER.counters["run_many.broken_pools"] == 1
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

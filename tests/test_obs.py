"""Tests for the observability layer (repro.obs).

Covers the streaming JSONL trace, event/counter reconciliation (for
every registered scheme — the acceptance gate for the telemetry bus),
per-component counters, the profiler, run manifests, and which engine
loop ``run()`` selects with telemetry attached or not.
"""

import json
import warnings
from dataclasses import asdict

import pytest

from repro.experiments import runner, store
from repro.frontend import FrontendConfig, FrontendSimulator
from repro.frontend.eventlog import EventLog
from repro.isa import CACHE_BLOCK_SIZE
from repro.obs import (
    PROFILER,
    ComponentCounters,
    JsonlTraceLog,
    Profiler,
    component_report,
    read_trace,
    reconcile,
    trace_run,
)
from repro.prefetchers import NextXLinePrefetcher
from repro.workloads import FetchRecord, Trace, get_trace, tracegen

B = CACHE_BLOCK_SIZE
RECORDS = 3_000
SCALE = 0.3
#: Engine-loop selection runs: long enough to evict and mispredict.
PATH_RECORDS = 1_500
PATH_WARMUP = 500


def rec(line_no, n=6, seq=False, **kw):
    addr = line_no * B
    return FetchRecord(line=addr, first_pc=addr, n_instr=n, seq=seq, **kw)


def _path_sim(model_data=False, prefetch=True):
    return FrontendSimulator(
        get_trace("web_apache", n_records=PATH_RECORDS, scale=SCALE),
        config=FrontendConfig(model_data=model_data),
        prefetcher=NextXLinePrefetcher(1) if prefetch else None)


def _masked(stats):
    """``asdict(stats)`` without ``engine_path``, the one field the two
    loops legitimately disagree on."""
    out = asdict(stats)
    out["extra"] = {k: v for k, v in out["extra"].items()
                    if k != "engine_path"}
    return out


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    yield store.get_store()
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()


class TestTraceRun:
    def test_stream_and_reread(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        stats, counts = trace_run("web_apache", "sn4l", out,
                                  n_records=RECORDS, scale=SCALE)
        assert out.exists()
        events, file_counts = read_trace(out)
        assert file_counts == {k: v for k, v in counts.items() if v}
        assert len(events) == sum(file_counts.values())
        # The file is valid JSONL with a measurement marker.
        lines = out.read_text().splitlines()
        assert any(json.loads(ln).get("marker") == "measurement_start"
                   for ln in lines)

    def test_reconciles_with_stats(self, tmp_path):
        stats, counts = trace_run("web_apache", "sn4l_dis_btb",
                                  tmp_path / "t.jsonl",
                                  n_records=RECORDS, scale=SCALE)
        assert reconcile(stats, counts) == {}
        assert counts["prefetch"] == stats.prefetches_issued
        assert counts["demand_miss"] == stats.demand_misses

    @pytest.mark.parametrize("scheme", runner.scheme_names())
    def test_every_scheme_reconciles(self, scheme, tmp_path):
        """Acceptance gate: telemetry never drifts from the counters."""
        stats, counts = trace_run("web_apache", scheme,
                                  tmp_path / f"{scheme}.jsonl",
                                  n_records=1_500, scale=SCALE)
        _, file_counts = read_trace(tmp_path / f"{scheme}.jsonl")
        assert reconcile(stats, file_counts) == {}, scheme

    def test_stats_identical_to_cached_run(self, tmp_path, fresh_store):
        traced, _ = trace_run("web_apache", "nl", tmp_path / "t.jsonl",
                              n_records=RECORDS, scale=SCALE)
        cached = runner.run_scheme("web_apache", "nl", n_records=RECORDS,
                                   scale=SCALE)
        assert asdict(traced) == asdict(cached.stats)

    def test_trace_log_close_idempotent(self, tmp_path):
        log = JsonlTraceLog(tmp_path / "x.jsonl")
        log.emit(1, "fill", 0x1000)
        log.close()
        log.close()
        assert log.events_written == 1


class TestComponentCounters:
    def test_sums_match_aggregate_stats(self):
        stats, cc = component_report("web_apache", "sn4l_dis_btb",
                                     n_records=RECORDS, scale=SCALE)
        assert sum(cc.issued.values()) == stats.prefetches_issued
        assert sum(cc.useful.values()) == stats.prefetches_useful
        assert sum(cc.useless.values()) == stats.prefetches_useless
        assert sum(cc.covered_latency.values()) == \
            pytest.approx(stats.covered_latency)
        assert sum(cc.prefetched_latency.values()) == \
            pytest.approx(stats.prefetched_latency)

    def test_sources_are_components(self):
        _, cc = component_report("web_apache", "sn4l_dis_btb",
                                 n_records=RECORDS, scale=SCALE)
        assert "sn4l" in cc.sources()
        assert set(cc.sources()) <= {"sn4l", "dis"}

    def test_default_source_is_prefetcher_name(self):
        sim = FrontendSimulator(Trace([rec(1), rec(2)]),
                                prefetcher=NextXLinePrefetcher(1))
        cc = sim.enable_component_telemetry()
        sim.run()
        assert set(cc.issued) == {"nl"}
        assert cc.issued["nl"] == sim.stats.prefetches_issued

    def test_derived_metrics(self):
        cc = ComponentCounters()
        cc.on_issue("x")
        cc.on_issue("x")
        cc.on_useful("x", covered=30.0, full=40.0, late=True)
        cc.on_useless("x")
        assert cc.accuracy("x") == 0.5
        assert cc.timeliness("x") == pytest.approx(0.75)
        d = cc.as_dict()["x"]
        assert d["issued"] == 2.0 and d["late"] == 1.0
        assert "x" in cc.render()

    def test_keeps_vectorized_path(self):
        # Attribution happens in the fill/demand helpers both loops
        # share, so the batched loop keeps running and attributes
        # exactly what the reference loop does.
        reports = {}
        for fast in (True, False):
            sim = _path_sim()
            cc = sim.enable_component_telemetry()
            sim.run(warmup=PATH_WARMUP, fast=fast)
            reports[sim.engine_path] = cc.as_dict()
        assert set(reports) == {"vectorized", "generic"}
        assert reports["vectorized"] == reports["generic"]
        assert reports["vectorized"]["nl"]["issued"] > 0


class TestEnginePath:
    """``run()`` picks its loop silently: the vectorized one unless
    ``fast=False`` or a datapath model (which hooks every record) asks
    for the generic reference, and either loop counts the same."""

    @pytest.mark.parametrize("fast", (True, False), ids=("fast", "slow"))
    @pytest.mark.parametrize("prefetch", (False, True), ids=("none", "nl"))
    @pytest.mark.parametrize("model_data", (False, True),
                             ids=("frontend", "datapath"))
    def test_selection(self, model_data, prefetch, fast):
        sim = _path_sim(model_data, prefetch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = sim.run(warmup=PATH_WARMUP, fast=fast)
        expected = "vectorized" if fast and not model_data else "generic"
        assert sim.engine_path == stats.extra["engine_path"] == expected
        reference = _path_sim(model_data, prefetch).run(
            warmup=PATH_WARMUP, fast=False)
        assert _masked(stats) == _masked(reference)

    def test_event_log_keeps_vectorized_path(self):
        logs = {}
        for fast in (True, False):
            sim = _path_sim()
            sim.event_log = EventLog(capacity=1 << 16)
            stats = sim.run(warmup=PATH_WARMUP, fast=fast)
            assert reconcile(stats, sim.event_log.counts) == {}
            logs[sim.engine_path] = sim.event_log
        assert set(logs) == {"vectorized", "generic"}
        assert logs["vectorized"].counts == logs["generic"].counts
        assert list(logs["vectorized"]) == list(logs["generic"])


class TestProfiler:
    def test_span_and_counters(self):
        prof = Profiler()
        with prof.span("work"):
            pass
        with prof.span("work"):
            pass
        prof.incr("things", 3)
        span = prof.span_stats("work")
        assert span.count == 2
        assert span.total >= 0.0
        assert span.min <= span.max
        assert prof.counters["things"] == 3
        snap = prof.snapshot()
        assert snap["counters"]["things"] == 3
        assert snap["spans"]["work"]["count"] == 2.0
        assert "work" in prof.render()
        prof.reset()
        assert prof.snapshot() == {"counters": {}, "spans": {}}

    def test_span_records_on_exception(self):
        prof = Profiler()
        with pytest.raises(RuntimeError):
            with prof.span("boom"):
                raise RuntimeError("x")
        assert prof.span_stats("boom").count == 1

    def test_run_scheme_reports(self, fresh_store):
        PROFILER.reset()
        runner.run_scheme("web_apache", "baseline", n_records=RECORDS,
                          scale=SCALE)
        assert PROFILER.counters["run_scheme.simulations"] == 1
        assert PROFILER.span_stats("run_scheme.simulate").count == 1
        # Memoised repeat: no new simulation, a memo hit instead.
        runner.run_scheme("web_apache", "baseline", n_records=RECORDS,
                          scale=SCALE)
        assert PROFILER.counters["run_scheme.simulations"] == 1
        assert PROFILER.counters["run_scheme.memo_hits"] == 1
        PROFILER.reset()


class TestRunManifest:
    def test_written_next_to_result(self, fresh_store):
        runner.run_scheme("web_apache", "baseline", n_records=RECORDS,
                          scale=SCALE)
        manifests = list(fresh_store.iter_manifests())
        assert len(manifests) == 1
        m = manifests[0]
        assert m["workload"] == "web_apache"
        assert m["scheme"] == "baseline"
        assert m["n_records"] == RECORDS
        assert m["duration_s"] >= 0.0
        assert m["summary"]["cycles"] > 0
        # Next to the result entry, keyed by the same fingerprint.
        fp = m["fingerprint"]
        assert fresh_store.result_path(fp).exists()
        assert fresh_store.manifest_path(fp).exists()
        assert fresh_store.load_manifest(fp) == m

    def test_unreadable_manifest_is_skipped(self, fresh_store):
        runner.run_scheme("web_apache", "baseline", n_records=RECORDS,
                          scale=SCALE)
        fp = next(fresh_store.iter_manifests())["fingerprint"]
        fresh_store.manifest_path(fp).write_text("{broken")
        assert fresh_store.load_manifest(fp) is None
        assert list(fresh_store.iter_manifests()) == []

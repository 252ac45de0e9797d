"""Tests for the benchmark history (obs.bench), the statistical
regression gate (obs.regress) and the shared t/CI helpers
(experiments.report).

The acceptance behaviours pinned here: back-to-back runs of the same
build gate clean (deterministic digest match, overlapping intervals); an
injected 2x slowdown in one scheme fails the gate *naming that scheme*;
a changed behaviour digest fails regardless of timing.
"""

import copy
import json

import pytest

from repro.experiments import runner, store
from repro.experiments.report import (
    SampleSummary,
    summarize_samples,
    t_cdf,
    t_ppf,
)
from repro.obs import bench, regress
from repro.workloads import tracegen

RECORDS = 2_000
SCALE = 0.3

CELL = bench.BenchCell("web_apache", "baseline", n_records=RECORDS,
                       scale=SCALE)


@pytest.fixture(autouse=True)
def _fresh_store(monkeypatch, tmp_path):
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    yield
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()


class TestStatHelpers:
    """Regression tests for the t/CI helpers on known inputs."""

    # Textbook two-sided 95% critical values.
    @pytest.mark.parametrize("df,expected", [
        (1, 12.706), (2, 4.303), (4, 2.776), (10, 2.228), (30, 2.042),
    ])
    def test_t_ppf_known_values(self, df, expected):
        assert t_ppf(0.975, df) == pytest.approx(expected, abs=2e-3)

    def test_t_ppf_symmetry_and_median(self):
        assert t_ppf(0.5, 7) == 0.0
        assert t_ppf(0.025, 5) == pytest.approx(-t_ppf(0.975, 5))

    def test_t_cdf_is_a_cdf(self):
        assert t_cdf(0.0, 3) == pytest.approx(0.5)
        assert t_cdf(100.0, 3) == pytest.approx(1.0, abs=1e-5)
        assert t_cdf(-100.0, 3) == pytest.approx(0.0, abs=1e-5)

    def test_summarize_known_samples(self):
        s = summarize_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.n == 5
        assert s.mean == pytest.approx(3.0)
        assert s.std_error == pytest.approx(0.70711, abs=1e-4)
        # t(0.975, df=4) = 2.776 -> half width 1.963
        assert s.ci_half_width == pytest.approx(1.963, abs=2e-3)
        assert s.lo == pytest.approx(3.0 - 1.963, abs=2e-3)
        assert s.hi == pytest.approx(3.0 + 1.963, abs=2e-3)

    def test_summarize_single_sample(self):
        s = summarize_samples([7.0])
        assert (s.n, s.mean, s.ci_half_width) == (1, 7.0, 0.0)

    def test_overlap(self):
        a = SampleSummary(3, 10.0, 1.0, 2.0, 0.95)   # [8, 12]
        b = SampleSummary(3, 13.0, 1.0, 2.0, 0.95)   # [11, 15]
        c = SampleSummary(3, 20.0, 1.0, 2.0, 0.95)   # [18, 22]
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_samples([])


class TestBenchHistory:
    def test_run_cell_record_shape(self):
        record = bench.run_cell(CELL, repeats=2)
        assert record["workload"] == "web_apache"
        assert record["scheme"] == "baseline"
        assert record["repeats"] == 2
        assert len(record["records_per_sec"]) == 2
        assert record["mean_records_per_sec"] > 0
        assert record["digest"]["instructions"] > 0
        assert record["fingerprint"]
        assert record["cell"] == CELL.key()
        assert record["counters"]["engine_path"] == "vectorized"
        # The record is JSON-serialisable as-is (history line contract).
        json.dumps(record)

    def test_digest_is_deterministic(self):
        a = bench.run_cell(CELL, repeats=1)
        b = bench.run_cell(CELL, repeats=3)
        assert a["digest"] == b["digest"]

    def test_append_and_load_history(self):
        record = bench.run_cell(CELL, repeats=1)
        assert bench.load_history() == []
        bench.append_history(record)
        bench.append_history(record)
        loaded = bench.load_history()
        assert len(loaded) == 2
        assert loaded[0]["cell"] == CELL.key()
        assert bench.history_path().parent == store.bench_dir()

    def test_corrupt_history_lines_skipped(self):
        record = bench.run_cell(CELL, repeats=1)
        bench.append_history(record)
        with open(bench.history_path(), "a", encoding="utf-8") as fh:
            fh.write("{torn line\n")
        bench.append_history(record)
        assert len(bench.load_history()) == 2

    def test_latest_baseline_matches_cell_only(self):
        record = bench.run_cell(CELL, repeats=1)
        other = dict(record, cell="other/cell@1x1j1")
        first = dict(record, mean_records_per_sec=1.0)
        history = [first, other, record]
        assert bench.latest_baseline(history, record) is record
        assert bench.latest_baseline([first, other], record) is first
        assert bench.latest_baseline([other], record) is None

    def test_resolve_matrix_overrides(self):
        cells = bench.resolve_matrix("small", n_records=1234, scale=0.7)
        assert all(c.n_records == 1234 and c.scale == 0.7 for c in cells)
        assert {c.scheme for c in cells} == {"baseline", "sn4l_dis_btb"}
        with pytest.raises(KeyError):
            bench.resolve_matrix("nope")

    def test_default_matrix_covers_workloads_and_proactive_variants(self):
        cells = bench.MATRICES["default"]
        workloads = {c.workload for c in cells}
        schemes = {c.scheme for c in cells}
        assert len(workloads) >= 3
        assert {"baseline", "sn4l", "sn4l_dis", "sn4l_dis_btb"} <= schemes

    def test_pool_cell(self):
        cell = bench.BenchCell("web_apache", "baseline",
                               n_records=RECORDS, scale=SCALE, jobs=2)
        record = bench.run_cell(cell, repeats=1)
        assert record["jobs"] == 2
        assert record["counters"]["engine_path"] == "vectorized"
        serial = bench.run_cell(CELL, repeats=1)
        assert record["digest"] == serial["digest"]


class TestRegressionGate:
    def _record(self, **overrides):
        record = bench.run_cell(CELL, repeats=2)
        record.update(overrides)
        return record

    def test_no_baseline(self):
        record = self._record()
        verdict = regress.check_record(record, None)
        assert verdict.status == "no-baseline"
        assert not verdict.failed

    def test_back_to_back_same_build_passes(self):
        """Acceptance: two runs of the same rev report no regression."""
        first = bench.run_cell(CELL, repeats=3)
        bench.append_history(first)
        second = bench.run_cell(CELL, repeats=3)
        verdicts = regress.check_records([second], bench.load_history(),
                                         tolerance=0.5)
        assert [v.status for v in verdicts] in (["pass"], ["improved"])
        assert not regress.any_failed(verdicts)

    def test_one_sample_slowdown_is_unresolved(self):
        """One sample has no interval: a 2x drop at --repeats 1 is
        reported as ungated timing, not as a regression."""
        current = self._record(records_per_sec=[100.0],
                               mean_records_per_sec=100.0)
        baseline = copy.deepcopy(current)
        baseline["records_per_sec"] = [200.0]
        baseline["mean_records_per_sec"] = 200.0
        verdict = regress.check_record(current, baseline, tolerance=0.10)
        assert verdict.status == "unresolved"
        assert not verdict.failed
        assert verdict.ratio == pytest.approx(2.0)
        assert verdict.ci_overlap is None
        rendered = regress.render_verdicts([verdict])
        assert "REGRESSION" not in rendered
        assert "timing not gated" in rendered
        report = regress.markdown_report([verdict])
        assert "PASSED" in report and "not gated" in report

    def test_one_sample_digest_drift_still_fails(self):
        current = self._record(records_per_sec=[100.0],
                               mean_records_per_sec=100.0)
        baseline = copy.deepcopy(current)
        baseline["records_per_sec"] = [100.0]
        baseline["digest"] = dict(baseline["digest"], l1i_misses=-1)
        verdict = regress.check_record(current, baseline)
        assert verdict.status == "behaviour"
        assert verdict.failed

    def test_two_sample_disjoint_slowdown_is_a_regression(self):
        current = self._record(records_per_sec=[99.0, 101.0],
                               mean_records_per_sec=100.0)
        baseline = copy.deepcopy(current)
        baseline["records_per_sec"] = [199.0, 201.0]
        baseline["mean_records_per_sec"] = 200.0
        verdict = regress.check_record(current, baseline, tolerance=0.10)
        assert verdict.status == "regression"
        assert verdict.failed

    def test_injected_slowdown_is_flagged_with_scheme_named(self):
        """Acceptance: a 2x slowdown in one scheme fails, naming it."""
        current = self._record(records_per_sec=[99.0, 100.0, 101.0],
                               mean_records_per_sec=100.0)
        # The stored baseline ran 2x faster, with a tight interval far
        # away from the current one.
        baseline = copy.deepcopy(current)
        baseline["records_per_sec"] = [198.0, 200.0, 202.0]
        baseline["mean_records_per_sec"] = 200.0
        verdict = regress.check_record(current, baseline, tolerance=0.10)
        assert verdict.status == "regression"
        assert verdict.failed
        assert verdict.ratio == pytest.approx(2.0, rel=0.01)
        rendered = regress.render_verdicts([verdict])
        assert "REGRESSION" in rendered
        assert "baseline" in rendered          # the offending scheme
        report = regress.markdown_report([verdict])
        assert "FAILED" in report and "baseline" in report

    def test_behaviour_drift_is_flagged(self):
        current = self._record()
        baseline = copy.deepcopy(current)
        baseline["digest"]["demand_misses"] += 7
        verdict = regress.check_record(current, baseline)
        assert verdict.status == "behaviour"
        assert verdict.failed
        assert "demand_misses" in verdict.drift
        assert "demand_misses" in regress.render_verdicts([verdict])

    def test_faster_is_improved_not_failed(self):
        current = self._record(records_per_sec=[198.0, 200.0, 202.0],
                               mean_records_per_sec=200.0)
        baseline = copy.deepcopy(current)
        baseline["records_per_sec"] = [99.0, 100.0, 101.0]
        baseline["mean_records_per_sec"] = 100.0
        verdict = regress.check_record(current, baseline)
        assert verdict.status == "improved"
        assert not verdict.failed

    def test_slow_but_overlapping_intervals_pass(self):
        current = self._record(records_per_sec=[80.0, 100.0, 120.0],
                               mean_records_per_sec=100.0)
        baseline = self._record(records_per_sec=[90.0, 120.0, 150.0],
                                mean_records_per_sec=120.0)
        verdict = regress.check_record(current, baseline, tolerance=0.10)
        assert verdict.status == "pass"
        assert verdict.ci_overlap is True

    def test_parse_tolerance(self):
        assert regress.parse_tolerance("10%") == pytest.approx(0.10)
        assert regress.parse_tolerance("0.25") == pytest.approx(0.25)
        assert regress.parse_tolerance("15") == pytest.approx(0.15)
        assert regress.parse_tolerance(0.05) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            regress.parse_tolerance("lots")


class TestDerivedView:
    def test_view_from_history_preserves_microbench(self, tmp_path):
        record = bench.run_cell(CELL, repeats=1)
        bench.append_history(record)
        out = tmp_path / "BENCH_throughput.json"
        out.write_text(json.dumps(
            {"engine_microbench": {"workload": "web_apache"}}))
        bench.write_view(bench.load_history(), out)
        view = json.loads(out.read_text())
        assert view["version"] == 2
        assert view["engine_microbench"] == {"workload": "web_apache"}
        row = view["matrix"]["web_apache"]["baseline"]
        assert row["records_per_sec"] == record["mean_records_per_sec"]
        assert row["ipc"] > 0

    def test_latest_entry_wins(self, tmp_path):
        old = bench.run_cell(CELL, repeats=1)
        new = dict(old, mean_records_per_sec=123456.0)
        matrix = bench.derive_view([old, new])
        assert matrix["web_apache"]["baseline"]["records_per_sec"] \
            == 123456.0

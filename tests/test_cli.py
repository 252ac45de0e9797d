"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "nope"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "oltp_db_a" in out and "Web (Apache)" not in out.split()[0]

    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "sn4l_dis_btb" in out and "shotgun" in out

    def test_run(self, capsys):
        rc = main(["run", "--workload", "web_frontend", "--scheme", "sn4l",
                   "--records", "8000", "--scale", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "MPKI" in out

    def test_compare(self, capsys):
        rc = main(["compare", "--workload", "web_frontend",
                   "--schemes", "nl,sn4l", "--records", "8000",
                   "--scale", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nl" in out and "sn4l" in out

    def test_compare_unknown_scheme(self, capsys):
        rc = main(["compare", "--workload", "web_frontend",
                   "--schemes", "bogus", "--records", "8000",
                   "--scale", "0.3"])
        assert rc == 2

    def test_figure_tab2(self, capsys):
        assert main(["figure", "tab2"]) == 0
        assert "shotgun" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2

    def test_sample(self, capsys):
        rc = main(["sample", "--workload", "web_frontend",
                   "--scheme", "sn4l", "--samples", "2",
                   "--records", "6000", "--scale", "0.3"])
        assert rc == 0
        assert "±" in capsys.readouterr().out

    def test_multicore(self, capsys):
        rc = main(["multicore", "--mix", "webfarm4", "--scheme", "sn4l",
                   "--records", "4000", "--scale", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggregate IPC" in out and "core0" in out

    def test_multicore_unknown_mix(self, capsys):
        rc = main(["multicore", "--mix", "nope"])
        assert rc == 2

    def test_figure_export_csv(self, capsys, tmp_path):
        out_csv = str(tmp_path / "tab2.csv")
        # tab2 has no tabular exporter registered -> graceful error.
        rc = main(["figure", "tab2", "--csv", out_csv])
        assert rc == 2

    def test_figure_export_fig8(self, capsys, tmp_path):
        out_csv = tmp_path / "fig8.csv"
        rc = main(["figure", "fig8", "--csv", str(out_csv)])
        assert rc == 0
        assert out_csv.exists()


class TestObservabilityCommands:
    def test_run_with_trace(self, capsys, tmp_path):
        out_jsonl = tmp_path / "trace.jsonl"
        rc = main(["run", "--workload", "web_frontend", "--scheme", "sn4l",
                   "--records", "6000", "--scale", "0.3",
                   "--trace", str(out_jsonl)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(reconciled)" in out and "speedup" in out
        assert out_jsonl.exists()
        from repro.obs import read_trace
        events, counts = read_trace(out_jsonl)
        assert events and sum(counts.values()) == len(events)

    def test_stats_overview(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "persistent store" in out

    def test_stats_metrics_is_prometheus_text(self, capsys):
        from repro.obs.metrics import parse_prometheus_text
        assert main(["stats", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_job_latency_seconds histogram" in out
        parsed = parse_prometheus_text(out)
        assert isinstance(parsed, dict)

    def test_top_against_dead_port_fails_fast(self, capsys):
        import socket
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["top", "--port", str(port), "--once"]) == 1
        assert "repro top:" in capsys.readouterr().out

    def test_stats_component_report(self, capsys):
        rc = main(["stats", "--workload", "web_frontend",
                   "--scheme", "sn4l_dis_btb", "--records", "6000",
                   "--scale", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sn4l" in out and "aggregate" in out

    def test_stats_needs_both_workload_and_scheme(self, capsys):
        assert main(["stats", "--workload", "web_frontend"]) == 2
        assert main(["stats", "--scheme", "sn4l"]) == 2

    def test_stats_json(self, capsys):
        rc = main(["stats", "--json", "--workload", "web_frontend",
                   "--scheme", "sn4l", "--records", "6000",
                   "--scale", "0.3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "store" in payload and "profile" in payload
        assert "sn4l" in payload["components"]["per_component"]

    def test_stats_counts_the_component_simulation(self, capsys):
        from repro.obs.metrics import REGISTRY
        REGISTRY.reset_values()
        rc = main(["stats", "--workload", "web_apache", "--scheme", "nl",
                   "--records", "3000", "--scale", "0.3", "--json"])
        assert rc == 0
        profile = json.loads(capsys.readouterr().out)["profile"]
        assert profile["repro_runs_total"] == 1
        assert profile["repro_records_simulated_total"] == 3000
        assert profile["repro_run_seconds_count"] == 1

    def test_compare_json(self, capsys):
        rc = main(["compare", "--workload", "web_frontend",
                   "--schemes", "nl,sn4l", "--records", "8000",
                   "--scale", "0.3", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "web_frontend"
        assert set(payload["schemes"]) == {"nl", "sn4l"}
        assert payload["schemes"]["sn4l"]["speedup"] > 0
        assert "cycles" in payload["baseline"]


class TestBenchCommands:
    @pytest.fixture(autouse=True)
    def _fresh_store(self, monkeypatch, tmp_path):
        from repro.experiments import runner, store
        from repro.workloads import tracegen
        monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
        store.reset_store()
        runner.clear_cache()
        tracegen.clear_cache()
        yield
        store.reset_store()
        runner.clear_cache()
        tracegen.clear_cache()

    BENCH = ["bench", "--matrix", "small", "--records", "2000",
             "--scale", "0.3", "--repeats", "1"]

    def test_bench_records_history(self, capsys):
        from repro.obs import bench
        assert main(self.BENCH) == 0
        out = capsys.readouterr().out
        assert "web_apache" in out and "sn4l_dis_btb" in out
        history = bench.load_history()
        assert len(history) == 2
        assert all(r["n_records"] == 2000 for r in history)

    def test_bench_check_back_to_back(self, capsys, tmp_path):
        """Acceptance: same-rev re-run gates clean (exit 0)."""
        assert main(self.BENCH) == 0
        capsys.readouterr()
        report = tmp_path / "report.md"
        rc = main(self.BENCH + ["--check", "--tolerance", "50%",
                                "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "REGRESSION" not in out
        assert "PASSED" in report.read_text()

    def test_bench_check_json_and_view(self, capsys, tmp_path):
        view = tmp_path / "view.json"
        rc = main(self.BENCH + ["--check", "--json", "--view", str(view)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 2
        assert all(v["status"] == "no-baseline"
                   for v in payload["verdicts"])
        matrix = json.loads(view.read_text())["matrix"]
        assert "sn4l_dis_btb" in matrix["web_apache"]

    def test_bench_bad_tolerance(self, capsys):
        assert main(self.BENCH + ["--check", "--tolerance", "soon"]) == 2


class TestTraceCommands:
    @pytest.fixture()
    def traces(self, tmp_path):
        from repro.obs import trace_run
        a = tmp_path / "baseline.jsonl"
        b = tmp_path / "sn4l_dis_btb.jsonl"
        trace_run("web_frontend", "baseline", a, n_records=4000, scale=0.3)
        trace_run("web_frontend", "sn4l_dis_btb", b,
                  n_records=4000, scale=0.3)
        return a, b

    def test_trace_summarize(self, capsys, traces):
        a, _ = traces
        assert main(["trace", "summarize", str(a)]) == 0
        out = capsys.readouterr().out
        assert "measured events" in out and "kinds" in out

    def test_trace_summarize_json(self, capsys, traces):
        a, _ = traces
        assert main(["trace", "summarize", str(a), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] > 0 and "components" in payload

    def test_trace_diff_identical(self, capsys, traces):
        a, _ = traces
        assert main(["trace", "diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_trace_diff_divergent_exits_1(self, capsys, traces):
        a, b = traces
        assert main(["trace", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out and "component" in out

    def test_trace_diff_json(self, capsys, traces):
        a, b = traces
        assert main(["trace", "diff", str(a), str(b), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is False
        assert payload["first_divergence"]["index"] >= 0

    def test_trace_query(self, capsys, traces):
        _, b = traces
        rc = main(["trace", "query", str(b), "--kind", "prefetch",
                   "--source", "sn4l", "--limit", "5"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(out) <= 5
        assert all("prefetch" in line and "sn4l" in line for line in out)

    def test_trace_query_cycle_range(self, capsys, traces):
        a, _ = traces
        rc = main(["trace", "query", str(a), "--cycle-min", "0",
                   "--cycle-max", "0"])
        assert rc == 0

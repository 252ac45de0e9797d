"""The metrics registry: declaration contract, export, merge, parsing.

Unit tests run against private :class:`MetricsRegistry` instances so
nothing here disturbs the process-wide :data:`REGISTRY`; the catalogue
tests read the real registry through the same ``render_metrics`` text
that ``/metricsz`` serves.
"""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    log_spaced_buckets,
    parse_prometheus_text,
    quantile_from_buckets,
    render_metrics,
)


def fresh_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.declare_counter("t_requests_total", "requests")
    reg.declare_gauge("t_depth", "queue depth")
    reg.declare_histogram("t_latency_seconds", "latency",
                          buckets=(0.1, 1.0, 10.0))
    return reg


class TestBuckets:
    def test_default_bounds_span_1ms_to_100s(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-3)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)
        # Five decades, four buckets per decade, inclusive of both ends.
        assert len(DEFAULT_BUCKETS) == 21
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            log_spaced_buckets(lo=0.0)
        with pytest.raises(ValueError):
            log_spaced_buckets(lo=1.0, hi=0.5)
        with pytest.raises(ValueError):
            log_spaced_buckets(per_decade=0)


class TestDeclarationContract:
    def test_observing_undeclared_raises(self):
        reg = fresh_registry()
        with pytest.raises(ValueError, match="never declared"):
            reg.inc("t_unheard_of_total")  # repro: noqa[TEL003] -- the violation is the point

    def test_kind_mismatch_on_observation(self):
        reg = fresh_registry()
        with pytest.raises(ValueError, match="is a counter"):
            reg.set_gauge("t_requests_total", 1.0)
        with pytest.raises(ValueError, match="is a gauge"):
            reg.observe("t_depth", 1.0)
        with pytest.raises(ValueError, match="is a histogram"):
            reg.inc("t_latency_seconds")

    def test_redeclaration_is_idempotent_but_kind_checked(self):
        reg = fresh_registry()
        reg.declare_counter("t_requests_total", "same kind: fine")
        with pytest.raises(ValueError, match="already declared"):
            reg.declare_gauge("t_requests_total", "different kind")

    def test_bad_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="bad metric name"):
            reg.declare_counter("1starts_with_digit", "")  # repro: noqa[TEL004] -- rejected name
        with pytest.raises(ValueError, match="bad metric name"):
            reg.declare_counter("has-dashes", "")  # repro: noqa[TEL004] -- rejected name


class TestObservationAndRender:
    def test_counter_and_gauge_roundtrip(self):
        reg = fresh_registry()
        reg.inc("t_requests_total")
        reg.inc("t_requests_total", 2.0, labels={"method": "GET"})
        reg.set_gauge("t_depth", 7.0)
        reg.set_gauge("t_depth", 3.0)      # last write wins
        parsed = parse_prometheus_text(reg.render())
        assert ({}, 1.0) in parsed["t_requests_total"]
        assert ({"method": "GET"}, 2.0) in parsed["t_requests_total"]
        assert parsed["t_depth"] == [({}, 3.0)]

    def test_histogram_buckets_are_cumulative(self):
        reg = fresh_registry()
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            reg.observe("t_latency_seconds", value)
        parsed = parse_prometheus_text(reg.render())
        by_le = {labels["le"]: value for labels, value
                 in parsed["t_latency_seconds_bucket"]}
        assert by_le == {"0.1": 1.0, "1": 3.0, "10": 4.0,
                        "+Inf": 5.0}
        assert parsed["t_latency_seconds_count"] == [({}, 5.0)]
        assert parsed["t_latency_seconds_sum"][0][1] == \
            pytest.approx(56.05)

    def test_exemplar_rendered_and_stripped_by_parser(self):
        reg = fresh_registry()
        reg.observe("t_latency_seconds", 0.5,
                    exemplar={"trace_id": "aa11", "span_id": "bb22"})
        text = reg.render()
        assert ' # {span_id="bb22",trace_id="aa11"} 0.5' in text
        parsed = parse_prometheus_text(text)
        # The parser drops the exemplar but keeps the bucket count.
        by_le = {labels["le"]: value for labels, value
                 in parsed["t_latency_seconds_bucket"]}
        assert by_le["1"] == 1.0

    def test_label_values_are_escaped(self):
        reg = fresh_registry()
        reg.inc("t_requests_total", labels={"path": 'a"b\\c'})
        parsed = parse_prometheus_text(reg.render())
        assert parsed["t_requests_total"] == [({"path": 'a"b\\c'}, 1.0)]

    def test_help_and_type_lines_present(self):
        text = fresh_registry().render()
        assert "# HELP t_requests_total requests" in text
        assert "# TYPE t_requests_total counter" in text
        assert "# TYPE t_depth gauge" in text
        assert "# TYPE t_latency_seconds histogram" in text


class TestQuantiles:
    def test_interpolates_inside_landing_bucket(self):
        pairs = [(1.0, 0.0), (2.0, 10.0), (math.inf, 10.0)]
        assert quantile_from_buckets(pairs, 0.5) == pytest.approx(1.5)
        assert quantile_from_buckets(pairs, 1.0) == pytest.approx(2.0)

    def test_inf_bucket_reports_last_finite_bound(self):
        pairs = [(1.0, 0.0), (math.inf, 10.0)]
        assert quantile_from_buckets(pairs, 0.5) == pytest.approx(1.0)

    def test_empty_and_zero_total_return_none(self):
        assert quantile_from_buckets([], 0.5) is None
        assert quantile_from_buckets([(1.0, 0.0)], 0.5) is None

    def test_registry_quantiles_method(self):
        reg = fresh_registry()
        for value in (0.5,) * 99 + (5.0,):
            reg.observe("t_latency_seconds", value)
        qs = reg.quantiles("t_latency_seconds", (0.5, 0.99))
        assert 0.1 < qs[0.5] <= 1.0
        assert qs[0.99] > 0.5
        # Unknown / non-histogram names answer None, never raise.
        assert reg.quantiles("t_depth", (0.5,)) == {0.5: None}


class TestSnapshotAndMerge:
    def test_worker_snapshot_folds_into_parent(self):
        parent, worker = fresh_registry(), fresh_registry()
        parent.inc("t_requests_total", 3.0)
        worker.inc("t_requests_total", 2.0)
        worker.set_gauge("t_depth", 9.0)
        worker.observe("t_latency_seconds", 0.5)
        worker.observe("t_latency_seconds", 5.0)
        parent.merge(worker.snapshot())
        parsed = parse_prometheus_text(parent.render())
        assert parsed["t_requests_total"] == [({}, 5.0)]   # counters add
        assert "t_depth" not in parsed      # gauges never cross processes
        assert parsed["t_latency_seconds_count"] == [({}, 2.0)]

    def test_incompatible_histogram_shape_is_dropped(self):
        parent = fresh_registry()
        other = MetricsRegistry()
        other.declare_histogram("t_latency_seconds", "different buckets",
                                buckets=(1.0, 2.0))
        other.observe("t_latency_seconds", 1.5)
        parent.merge(other.snapshot())
        parsed = parse_prometheus_text(parent.render())
        # Dropped, never corrupted: the parent histogram stays empty.
        assert "t_latency_seconds_count" not in parsed

    def test_snapshot_survives_label_roundtrip(self):
        reg = fresh_registry()
        reg.inc("t_requests_total", labels={"method": "GET"})
        snap = reg.snapshot()
        assert snap["counters"]["t_requests_total"] == \
            [{"labels": [["method", "GET"]], "value": 1.0}]

    def test_reset_values_keeps_declarations(self):
        reg = fresh_registry()
        reg.inc("t_requests_total")
        reg.observe("t_latency_seconds", 0.5)
        reg.reset_values()
        parsed = parse_prometheus_text(reg.render())
        assert parsed == {}                # no samples...
        reg.inc("t_requests_total")        # ...but still declared


class TestCollectors:
    def test_collectors_sample_before_every_render(self):
        reg = fresh_registry()
        ticks = []

        def collector():
            ticks.append(1)
            reg.set_gauge("t_depth", float(len(ticks)))

        reg.add_collector(collector)
        reg.add_collector(collector)       # registration is idempotent
        parsed = parse_prometheus_text(reg.render())
        assert parsed["t_depth"] == [({}, 1.0)]
        reg.render()
        assert len(ticks) == 2

    def test_failing_collector_never_breaks_export(self):
        reg = fresh_registry()

        def broken():
            raise RuntimeError("observer died")

        reg.add_collector(broken)
        assert "t_requests_total" in reg.render()
        reg.remove_collector(broken)
        reg.remove_collector(broken)       # double-remove is a no-op


class TestParsePrometheusText:
    def test_inf_comments_and_garbage(self):
        text = ("# HELP x_total help\n"
                "# TYPE x_total counter\n"
                'x_bucket{le="+Inf"} 4\n'
                "not a metric line at all ???\n"
                "x_total 7\n")
        parsed = parse_prometheus_text(text)
        assert parsed["x_bucket"] == [({"le": "+Inf"}, 4.0)]
        assert parsed["x_total"] == [({}, 7.0)]
        assert parse_prometheus_text("y +Inf\n")["y"] == [({}, math.inf)]

    def test_label_commas_inside_quotes(self):
        parsed = parse_prometheus_text('x{a="1,2",b="3"} 5\n')
        assert parsed["x"] == [({"a": "1,2", "b": "3"}, 5.0)]


class TestProcessCatalogue:
    """The real registry, through the same text ``/metricsz`` serves."""

    def test_core_schema_is_declared_at_import(self):
        text = render_metrics()
        for name, kind in (("repro_http_requests_total", "counter"),
                           ("repro_jobs_submitted_total", "counter"),
                           ("repro_job_queue_depth", "gauge"),
                           ("repro_store_hits", "gauge"),
                           ("repro_job_latency_seconds", "histogram"),
                           ("repro_run_seconds", "histogram")):
            assert f"# TYPE {name} {kind}" in text

    def test_render_metrics_parses_cleanly(self):
        parse_prometheus_text(render_metrics())

    def test_store_collector_is_registered(self):
        names = {c.__name__ for c in REGISTRY._collectors}
        assert "_store_collector" in names

"""Tests for the observability layer: spans, collectors, exporters."""

import json
import math

import pytest

from repro.observability import (
    METRICS,
    NullCollector,
    RecordingCollector,
    aggregate_spans,
    error_time_table,
    get_collector,
    metric_inc,
    metric_observe,
    read_trace,
    set_collector,
    stats_table,
    timed_span,
    trace,
    using_collector,
    write_trace,
)
from repro.observability.export import percentile


class TestCollectorManagement:
    def test_default_is_null(self):
        collector = get_collector()
        assert isinstance(collector, NullCollector)
        assert not collector.enabled

    def test_using_collector_scopes_and_restores(self):
        previous = get_collector()
        recording = RecordingCollector()
        with using_collector(recording):
            assert get_collector() is recording
        assert get_collector() is previous

    def test_using_collector_restores_on_error(self):
        previous = get_collector()
        with pytest.raises(RuntimeError):
            with using_collector(RecordingCollector()):
                raise RuntimeError("boom")
        assert get_collector() is previous

    def test_set_collector_returns_previous(self):
        original = get_collector()
        recording = RecordingCollector()
        assert set_collector(recording) is original
        assert set_collector(original) is recording


class TestSpans:
    def test_null_collector_records_nothing_and_skips_clock(self):
        with trace("noop", key=1) as span:
            pass
        assert span.seconds is None

    def test_timed_span_always_times(self):
        with timed_span("timed") as span:
            pass
        assert span.seconds is not None
        assert span.seconds >= 0.0

    def test_span_attributes_and_annotation(self):
        with using_collector(RecordingCollector()) as collector:
            with trace("work", shape=(3, 4)) as span:
                span.annotate(result_nnz=7.0)
        (record,) = collector.spans
        assert record.name == "work"
        assert record.attrs == {"shape": (3, 4), "result_nnz": 7.0}
        assert record.seconds >= 0.0

    def test_span_nesting_depths(self):
        with using_collector(RecordingCollector()) as collector:
            with trace("outer"):
                with trace("inner"):
                    with trace("innermost"):
                        pass
        by_name = {record.name: record for record in collector.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["innermost"].depth == 2
        # Inner spans complete (and are recorded) before outer ones.
        names = [record.name for record in collector.spans]
        assert names == ["innermost", "inner", "outer"]

    def test_span_recorded_even_when_body_raises(self):
        with using_collector(RecordingCollector()) as collector:
            with pytest.raises(ValueError):
                with trace("failing"):
                    raise ValueError("boom")
        assert [record.name for record in collector.spans] == ["failing"]

    def test_trace_as_decorator(self):
        @trace("decorated", flavor="test")
        def add(a, b):
            return a + b

        with using_collector(RecordingCollector()) as collector:
            assert add(2, 3) == 5
            assert add(4, 5) == 9
        assert len(collector.spans) == 2
        assert all(record.name == "decorated" for record in collector.spans)
        assert collector.spans[0].attrs == {"flavor": "test"}

    def test_counters_and_histograms(self):
        before = METRICS.snapshot()
        with using_collector(RecordingCollector()) as collector:
            metric_inc("hits")
            metric_inc("hits", 2.0)
            metric_observe("latency", 0.5)
            metric_observe("latency", 1.5)
        delta = METRICS.snapshot().delta_since(before)
        assert delta.counters == {"hits": 3.0}
        assert delta.histograms["latency"]["count"] == 2
        assert delta.histograms["latency"]["sum"] == pytest.approx(2.0)
        # The registry is the only store: the collector holds no counters.
        assert collector.snapshot().empty


class TestAggregation:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        assert math.isnan(percentile([], 95))

    def test_aggregate_groups_by_name_and_estimator(self):
        with using_collector(RecordingCollector()) as collector:
            for _ in range(3):
                with trace("estimator.build", estimator="MNC"):
                    pass
            with trace("estimator.build", estimator="DMap"):
                pass
            with trace("dag.propagate"):
                pass
        stats = aggregate_spans(collector.spans)
        keys = {(entry.name, entry.estimator) for entry in stats}
        assert ("estimator.build", "MNC") in keys
        assert ("estimator.build", "DMap") in keys
        assert ("dag.propagate", None) in keys
        mnc = next(s for s in stats if s.estimator == "MNC")
        assert mnc.count == 3
        assert mnc.total_seconds == pytest.approx(
            mnc.mean_seconds * 3, rel=1e-9
        )
        table = stats_table(stats, title="Span aggregates")
        assert "Span aggregates" in table
        assert "estimator.build" in table
        assert "p95 [s]" in table


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        collector = RecordingCollector()
        with using_collector(collector):
            with trace("estimator.build", estimator="MNC", shape=(10, 20)):
                pass
        collector.record_outcome({
            "use_case": "B1.1", "estimator": "MNC",
            "relative_error": 1.0, "seconds": 0.001, "status": "ok",
        })
        path = tmp_path / "trace.jsonl"
        records = write_trace(path, collector)
        assert records == 2
        # Every line is standalone JSON.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

        data = read_trace(path)
        (span,) = data.spans
        assert span.name == "estimator.build"
        assert span.attrs["estimator"] == "MNC"
        assert span.attrs["shape"] == [10, 20]  # tuples become JSON arrays
        (outcome,) = data.outcomes
        assert outcome["use_case"] == "B1.1"
        assert outcome["relative_error"] == 1.0

    def test_non_finite_values_survive_serialization(self, tmp_path):
        collector = RecordingCollector()
        collector.record_outcome({
            "use_case": "B2.1", "estimator": "LGraph",
            "relative_error": math.inf, "seconds": 0.0,
            "status": "unsupported",
        })
        path = tmp_path / "trace.jsonl"
        write_trace(path, collector)
        data = read_trace(path)
        table = error_time_table(data.outcomes)
        assert "LGraph" in table
        assert "unsupported" in table

    def test_read_skips_blank_and_unknown_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type": "span", "name": "a", "seconds": 0.1}\n'
            "\n"
            '{"type": "future-record", "payload": 1}\n'
        )
        data = read_trace(path)
        assert len(data.spans) == 1
        assert data.spans[0].name == "a"

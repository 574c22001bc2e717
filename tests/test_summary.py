"""Tests for the estimator summary statistics."""

import math

import pytest

from repro.sparsest.runner import EstimateOutcome
from repro.sparsest.summary import summarize, summary_table


def _outcome(case, estimator, error, status="ok", seconds=0.01):
    import math as m

    estimated = m.nan if status != "ok" else 10.0 * error
    return EstimateOutcome(case, estimator, 10.0, estimated, error, seconds, status)


class TestSummarize:
    def test_geometric_mean(self):
        outcomes = [
            _outcome("B1.1", "E", 2.0),
            _outcome("B1.2", "E", 8.0),
        ]
        summary = summarize(outcomes)[0]
        assert summary.geometric_mean_error == pytest.approx(4.0)

    def test_exact_count(self):
        outcomes = [
            _outcome("B1.1", "E", 1.0),
            _outcome("B1.2", "E", 1.0 + 1e-12),
            _outcome("B1.3", "E", 2.0),
        ]
        assert summarize(outcomes)[0].exact == 2

    def test_failures_excluded_from_errors(self):
        outcomes = [
            _outcome("B1.1", "E", 2.0),
            _outcome("B1.2", "E", math.inf, status="unsupported"),
        ]
        summary = summarize(outcomes)[0]
        assert summary.failures == 1
        assert summary.supported == 1
        assert summary.geometric_mean_error == pytest.approx(2.0)

    def test_wins(self):
        outcomes = [
            _outcome("B1.1", "A", 1.0),
            _outcome("B1.1", "B", 2.0),
            _outcome("B1.2", "A", 3.0),
            _outcome("B1.2", "B", 2.0),
        ]
        summaries = {s.estimator: s for s in summarize(outcomes)}
        assert summaries["A"].wins == 1
        assert summaries["B"].wins == 1

    def test_ties_count_for_both(self):
        outcomes = [
            _outcome("B1.1", "A", 1.0),
            _outcome("B1.1", "B", 1.0),
        ]
        summaries = {s.estimator: s for s in summarize(outcomes)}
        assert summaries["A"].wins == summaries["B"].wins == 1

    def test_sorted_by_geo_mean(self):
        outcomes = [
            _outcome("B1.1", "worse", 5.0),
            _outcome("B1.1", "better", 1.5),
        ]
        assert [s.estimator for s in summarize(outcomes)] == ["better", "worse"]

    def test_infinite_error_in_worst_not_mean(self):
        outcomes = [
            _outcome("B1.1", "E", 2.0),
            _outcome("B1.2", "E", math.inf),
        ]
        summary = summarize(outcomes)[0]
        assert summary.geometric_mean_error == pytest.approx(2.0)
        assert math.isinf(summary.worst_error)

    def test_all_unsupported(self):
        outcomes = [_outcome("B1.1", "E", math.inf, status="unsupported")]
        summary = summarize(outcomes)[0]
        assert math.isinf(summary.geometric_mean_error)
        assert summary.supported == 0


class TestSummaryTable:
    def test_renders(self):
        outcomes = [
            _outcome("B1.1", "MNC", 1.0),
            _outcome("B1.1", "MetaAC", 3.0),
        ]
        table = summary_table(outcomes, title="demo")
        assert "demo" in table
        assert "MNC" in table
        assert "geo-mean err" in table


class TestEndToEnd:
    def test_summary_over_real_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MNC_CACHE", str(tmp_path))
        from repro.sparsest import execute_outcomes, requests_for

        outcomes = execute_outcomes(
            requests_for(["B1.2", "B1.4"], ["mnc", "meta_ac"], scale=0.02)
        )
        summaries = {s.estimator: s for s in summarize(outcomes)}
        assert summaries["MNC"].exact == 2
        assert summaries["MNC"].geometric_mean_error <= (
            summaries["MetaAC"].geometric_mean_error
        )

"""Estimator telemetry: tracing, metrics, and profiling hooks.

The observability layer is the measurement substrate every performance PR
reports against. It has six parts:

- **Collectors** (:mod:`repro.observability.collector`): the pluggable sink
  behind the tracing API. The process-wide default is a
  :class:`NullCollector` whose spans cost one attribute check and *zero*
  clock reads, so instrumented hot paths (sketch construction, product
  estimation, propagation) stay as fast as uninstrumented code. Install a
  :class:`RecordingCollector` — usually via :func:`using_collector` — to
  accumulate spans and benchmark outcomes.
- **Spans** (:mod:`repro.observability.trace`): ``trace(name, **attrs)`` is
  both a context manager and a decorator; :class:`timed_span` additionally
  always reads the clock and exposes ``.seconds``, which is the shared
  timer the SparsEst runner and DAG estimator report from.
- **Recording proxy** (:mod:`repro.observability.recording`):
  :class:`RecordingEstimator` wraps any
  :class:`~repro.estimators.base.SparsityEstimator` and records every
  ``build``/``estimate_nnz``/``propagate`` call — op, operand shapes and
  non-zero counts, result estimate, wall time — while returning bit-identical
  results, so it is usable anywhere an estimator is accepted.
- **Metrics** (:mod:`repro.observability.metrics`): the process-wide
  :data:`METRICS` registry, the only store for counters
  (:func:`metric_inc`, or a pre-bound ``METRICS.cell`` on the hot path),
  gauges (:func:`metric_set`) and log-linear histograms with p50/p95/p99
  (:func:`metric_observe`) — plus the **accuracy residual ledger**
  recording estimate-vs-truth observations (paper metric M1) wherever
  ground truth is computed anyway. Unlike traces, metrics are always on;
  snapshots are versioned, picklable, and merge across parallel workers
  in task order.
- **Flight recorder** (:mod:`repro.observability.flight`): a bounded ring
  of the most recent spans/metric events; dumps a postmortem JSON on
  estimator exceptions, failed parallel tasks, or error spans when armed
  via ``--flight-recorder`` / ``$REPRO_FLIGHT_DUMP``.
- **Exporters** (:mod:`repro.observability.export`): JSON-lines trace dump
  and re-load, per-span aggregate statistics (count/total/mean/p95), the
  per-(use case, estimator) error-vs-time report, metrics-snapshot JSONL
  (:func:`write_metrics_jsonl`), and Prometheus text exposition
  (:func:`prometheus_exposition`).

CLI integration: every ``python -m repro`` subcommand accepts
``--trace FILE`` to dump a JSONL trace (now including the metric
snapshot and residual ledger), and ``python -m repro stats FILE...``
summarizes and merges one or more. See ``docs/OBSERVABILITY.md`` for the
span-name catalog and the metrics model.
"""

from repro.observability.collector import (
    Collector,
    NullCollector,
    RecordingCollector,
    SpanRecord,
    TracePayload,
    get_collector,
    set_collector,
    using_collector,
)
from repro.observability.export import (
    SpanStats,
    TraceData,
    aggregate_spans,
    error_time_table,
    merge_trace_data,
    prometheus_exposition,
    read_metrics_jsonl,
    read_trace,
    residual_table,
    stats_table,
    write_metrics_jsonl,
    write_trace,
)
from repro.observability.flight import FLIGHT, FlightRecorder
from repro.observability.metrics import (
    METRICS,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    MetricsSnapshot,
    ResidualRecord,
    flush,
    metric_inc,
    metric_observe,
    metric_set,
    metrics_snapshot,
    record_residual,
    reset_metrics,
)
from repro.observability.trace import (
    NULL_SPAN,
    maybe_trace,
    timed_span,
    trace,
    tracing_enabled,
)

# The recording proxy subclasses SparsityEstimator, and the estimators
# package in turn imports repro.core (which is instrumented with this
# package's spans). Resolving the proxy lazily keeps repro.observability a
# leaf dependency for the core modules and breaks that cycle.
_RECORDING_EXPORTS = ("EstimatorCall", "RecordingEstimator", "unwrap_estimator")


def __getattr__(name: str):
    if name in _RECORDING_EXPORTS:
        from repro.observability import recording

        return getattr(recording, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Collector",
    "EstimatorCall",
    "FLIGHT",
    "FlightRecorder",
    "METRICS",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_SPAN",
    "NullCollector",
    "RecordingCollector",
    "RecordingEstimator",
    "ResidualRecord",
    "SpanRecord",
    "SpanStats",
    "TraceData",
    "TracePayload",
    "aggregate_spans",
    "error_time_table",
    "flush",
    "get_collector",
    "maybe_trace",
    "merge_trace_data",
    "metric_inc",
    "metric_observe",
    "metric_set",
    "metrics_snapshot",
    "prometheus_exposition",
    "read_metrics_jsonl",
    "read_trace",
    "record_residual",
    "reset_metrics",
    "residual_table",
    "set_collector",
    "stats_table",
    "timed_span",
    "trace",
    "tracing_enabled",
    "unwrap_estimator",
    "using_collector",
    "write_metrics_jsonl",
    "write_trace",
]

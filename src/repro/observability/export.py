"""Trace exporters: JSONL dump/load, span aggregates, error-vs-time report.

The on-disk format is JSON lines, one record per line, discriminated by a
``type`` field:

- ``{"type": "span", "name", "start", "seconds", "depth", "attrs"}``
- ``{"type": "outcome", "use_case", "estimator", "relative_error",
  "seconds", "status", ...}``
- ``{"type": "metrics", "schema", "counters", "gauges", "histograms",
  ...}`` — a versioned :class:`~repro.observability.metrics.MetricsSnapshot`
  (see :data:`~repro.observability.metrics.METRICS_SCHEMA_VERSION`;
  readers reject snapshots from a newer schema). The file's only counter,
  gauge and histogram store.
- ``{"type": "residual", "source", "estimator", "workload", "op",
  "estimate", "truth", "relative_error", "seconds"}`` — one accuracy
  ledger entry.

Files written by schema-1 builds also hold ``counter`` and ``histogram``
records: per-run copies of what the same file's ``metrics`` record
already carries. The reader skips them like any unknown record type.

``python -m repro stats FILE...`` renders the aggregate tables from such
files (merging multiple); benchmarks can also consume traces
programmatically via :func:`read_trace`. :func:`write_metrics_jsonl` /
:func:`read_metrics_jsonl` move bare metric snapshots (no trace) through
the same record types, and :func:`prometheus_exposition` renders a
snapshot in the Prometheus text exposition format for scraping.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.observability.collector import RecordingCollector, SpanRecord
from repro.observability.metrics import (
    MetricsSnapshot,
    ResidualRecord,
    _bucket_lower,
    _Histogram,
)

PathLike = Union[str, Path]


def _jsonable(value: Any) -> Any:
    """Coerce span attributes to JSON-serializable values."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    # numpy scalars expose .item(); anything else degrades to str.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


@dataclass
class TraceData:
    """Contents of a trace file (or a live collector), decoded."""

    spans: List[SpanRecord] = field(default_factory=list)
    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    #: Decoded registry snapshot, when the file contained one (merged when
    #: it contained several).
    metrics: Optional[MetricsSnapshot] = None
    #: Accuracy-ledger entries from ``residual`` records.
    residuals: List[ResidualRecord] = field(default_factory=list)


def merge_trace_data(parts: Iterable[TraceData]) -> TraceData:
    """Fold several decoded trace/metric files into one view.

    Spans, outcomes, and residual ledgers concatenate in input order;
    metric snapshots merge with registry semantics (counters add, gauges
    take the later file, bucketed histograms add). The multi-file story
    behind ``repro stats FILE...`` — per-worker or per-shard dumps
    aggregate into the same shapes a single-process run would have
    produced.
    """
    merged = TraceData()
    for part in parts:
        merged.spans.extend(part.spans)
        merged.outcomes.extend(part.outcomes)
        merged.residuals.extend(part.residuals)
        if part.metrics is not None:
            merged.metrics = (
                part.metrics if merged.metrics is None
                else merged.metrics.merge(part.metrics)
            )
    return merged


def _metrics_records(snapshot: MetricsSnapshot) -> List[Dict[str, Any]]:
    """The JSONL records encoding *snapshot*: one ``metrics`` line plus one
    ``residual`` line per retained ledger entry."""
    records: List[Dict[str, Any]] = [
        {"type": "metrics", **_jsonable(snapshot.to_dict())}
    ]
    for residual in snapshot.residuals:
        records.append({"type": "residual", **_jsonable(residual.to_dict())})
    return records


def write_trace(
    path: PathLike,
    collector: RecordingCollector,
    metrics: Optional[MetricsSnapshot] = None,
) -> int:
    """Dump *collector* as JSON lines to *path*; returns the record count.

    When *metrics* is given, the snapshot and its residual ledger are
    appended as ``metrics``/``residual`` records, so one ``--trace`` file
    carries both the span profile and the accuracy telemetry.
    """
    records: List[Dict[str, Any]] = []
    for span in collector.spans:
        records.append({
            "type": "span",
            "name": span.name,
            "start": span.start,
            "seconds": span.seconds,
            "depth": span.depth,
            "attrs": _jsonable(dict(span.attrs)),
        })
    for outcome in collector.outcomes:
        records.append({"type": "outcome", **_jsonable(outcome)})
    if metrics is not None:
        records.extend(_metrics_records(metrics))
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def write_metrics_jsonl(path: PathLike, snapshot: MetricsSnapshot) -> int:
    """Dump a bare metrics snapshot (no trace) as JSONL; returns the
    record count. The write is atomic (temp file + rename) so a file seen
    on disk is always complete — this is the :func:`repro.observability.
    metrics.flush` / ``atexit`` durability path."""
    records = _metrics_records(snapshot)
    target = Path(path)
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    tmp.replace(target)
    return len(records)


def read_metrics_jsonl(path: PathLike) -> MetricsSnapshot:
    """Parse a metrics JSONL file back into a snapshot (ledger attached).

    Accepts full trace files too — only the ``metrics``/``residual``
    records are read. Raises ``ValueError`` when the file has no metrics
    record or the snapshot schema is newer than this build supports.
    """
    data = read_trace(path)
    if data.metrics is None:
        raise ValueError(f"no metrics record found in {path}")
    snapshot = data.metrics
    snapshot.residuals = list(data.residuals)
    return snapshot


def read_trace(path: PathLike) -> TraceData:
    """Parse a JSONL trace file back into structured records.

    Unknown record types — including the ``counter``/``histogram``
    records of schema-1 files — are ignored; blank lines are skipped.
    """
    data = TraceData()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "span":
                data.spans.append(SpanRecord(
                    name=record["name"],
                    start=float(record.get("start") or 0.0),
                    seconds=float(record.get("seconds") or 0.0),
                    depth=int(record.get("depth", 0)),
                    attrs=record.get("attrs", {}),
                ))
            elif kind == "outcome":
                data.outcomes.append({
                    key: value for key, value in record.items()
                    if key != "type"
                })
            elif kind == "metrics":
                snapshot = MetricsSnapshot.from_dict(record)
                data.metrics = (
                    snapshot if data.metrics is None
                    else data.metrics.merge(snapshot)
                )
            elif kind == "residual":
                data.residuals.append(ResidualRecord.from_dict(record))
    return data


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpanStats:
    """Aggregate statistics for one (span name, estimator) group."""

    name: str
    estimator: Optional[str]
    count: int
    total_seconds: float
    mean_seconds: float
    p95_seconds: float
    max_seconds: float


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def aggregate_spans(
    spans: Sequence[SpanRecord], by_estimator: bool = True
) -> List[SpanStats]:
    """Group spans by name (and the ``estimator`` attribute, if present).

    Returns one :class:`SpanStats` per group, sorted by total time
    descending — the profile view: the top row is where the run spent its
    time.
    """
    groups: Dict[tuple, List[float]] = {}
    for span in spans:
        estimator = span.attrs.get("estimator") if by_estimator else None
        groups.setdefault((span.name, estimator), []).append(span.seconds)
    stats = [
        SpanStats(
            name=name,
            estimator=estimator,
            count=len(durations),
            total_seconds=sum(durations),
            mean_seconds=sum(durations) / len(durations),
            p95_seconds=percentile(durations, 95.0),
            max_seconds=max(durations),
        )
        for (name, estimator), durations in groups.items()
    ]
    stats.sort(key=lambda s: (-s.total_seconds, s.name, s.estimator or ""))
    return stats


def stats_table(stats: Sequence[SpanStats], title: str = "") -> str:
    """Render span aggregates as the fixed-width profile table."""
    from repro.sparsest.report import simple_table  # deferred: heavy package

    rows = [
        [
            entry.name,
            entry.estimator or "-",
            entry.count,
            f"{entry.total_seconds:.6f}",
            f"{entry.mean_seconds:.6f}",
            f"{entry.p95_seconds:.6f}",
            f"{entry.max_seconds:.6f}",
        ]
        for entry in stats
    ]
    return simple_table(
        ["span", "estimator", "count", "total [s]", "mean [s]", "p95 [s]",
         "max [s]"],
        rows,
        title=title,
    )


def error_time_table(
    outcomes: Sequence[Dict[str, Any]], title: str = ""
) -> str:
    """Render the per-(use case, estimator) error-vs-time report."""
    from repro.sparsest.report import simple_table  # deferred: heavy package

    rows = []
    for outcome in outcomes:
        error = outcome.get("relative_error")
        if isinstance(error, str):  # non-finite values round-trip as repr()
            rendered_error = error
        elif error is None or (isinstance(error, float) and math.isnan(error)):
            rendered_error = "x"
        else:
            rendered_error = f"{float(error):.4f}"
        rows.append([
            str(outcome.get("use_case", "?")),
            str(outcome.get("estimator", "?")),
            rendered_error,
            f"{float(outcome.get('seconds', 0.0)):.6f}",
            str(outcome.get("status", "ok")),
        ])
    return simple_table(
        ["use case", "estimator", "rel-error", "seconds", "status"],
        rows,
        title=title,
    )


def residual_table(
    residuals: Sequence[ResidualRecord], title: str = ""
) -> str:
    """Render the residual ledger aggregated per (source, estimator).

    One row per group: observation count, mean/max finite relative error
    (paper M1), the number of non-finite errors (zero-vs-nonzero), and
    total attributed wall time.
    """
    from repro.sparsest.report import simple_table  # deferred: heavy package

    groups: Dict[tuple, List[ResidualRecord]] = {}
    for record in residuals:
        groups.setdefault((record.source, record.estimator), []).append(record)
    rows = []
    for (source, estimator), records in sorted(groups.items()):
        finite = [
            r.relative_error for r in records
            if math.isfinite(r.relative_error)
        ]
        rows.append([
            source,
            estimator,
            len(records),
            f"{sum(finite) / len(finite):.4f}" if finite else "-",
            f"{max(finite):.4f}" if finite else "-",
            len(records) - len(finite),
            f"{sum(r.seconds for r in records):.6f}",
        ])
    return simple_table(
        ["source", "estimator", "n", "mean err", "max err", "non-finite",
         "seconds"],
        rows,
        title=title,
    )


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_PROM_PREFIX = "repro_"


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into the Prometheus charset."""
    return _PROM_PREFIX + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prom_value(value: float) -> str:
    """Format a float the way the exposition format expects."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _prom_label(value: str) -> str:
    """Escape a label value per the exposition format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_exposition(snapshot: MetricsSnapshot) -> str:
    """Render *snapshot* in the Prometheus text exposition format (0.0.4).

    Counters gain a ``_total`` suffix, histograms are emitted as
    cumulative ``_bucket{le="..."}`` series (log-linear sub-bucket upper
    edges)
    with ``_sum``/``_count``, and the residual ledger is aggregated into
    labelled ``repro_residual_*`` series per (source, estimator). Every
    line is either a ``# HELP``/``# TYPE`` comment or a single sample, so
    the output parses line-by-line.
    """
    lines: List[str] = []

    for name, value in sorted(snapshot.counters.items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")

    for name, value in sorted(snapshot.gauges.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")

    for name, state in sorted(snapshot.histograms.items()):
        histogram = _Histogram.from_state(state)
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = histogram.zeros
        if histogram.zeros:
            lines.append(f'{prom}_bucket{{le="0"}} {cumulative}')
        for index in sorted(histogram.buckets):
            cumulative += histogram.buckets[index]
            upper = _prom_value(_bucket_lower(index + 1))
            lines.append(f'{prom}_bucket{{le="{upper}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{prom}_sum {_prom_value(histogram.total)}")
        lines.append(f"{prom}_count {histogram.count}")

    groups: Dict[tuple, List[ResidualRecord]] = {}
    for record in snapshot.residuals:
        groups.setdefault((record.source, record.estimator), []).append(record)
    if groups:
        base = _PROM_PREFIX + "residual_ledger"
        lines.append(f"# TYPE {base}_count gauge")
        lines.append(f"# TYPE {base}_error_mean gauge")
        lines.append(f"# TYPE {base}_seconds_total gauge")
        for (source, estimator), records in sorted(groups.items()):
            labels = (
                f'source="{_prom_label(source)}",'
                f'estimator="{_prom_label(estimator)}"'
            )
            finite = [
                r.relative_error for r in records
                if math.isfinite(r.relative_error)
            ]
            mean = sum(finite) / len(finite) if finite else math.nan
            seconds = sum(r.seconds for r in records)
            lines.append(f"{base}_count{{{labels}}} {len(records)}")
            lines.append(f"{base}_error_mean{{{labels}}} {_prom_value(mean)}")
            lines.append(
                f"{base}_seconds_total{{{labels}}} {_prom_value(seconds)}"
            )

    return "\n".join(lines) + "\n" if lines else ""

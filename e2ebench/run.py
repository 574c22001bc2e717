"""End-to-end benchmark for repro serve, the chain optimizer and SparsEst.

Usage (from the checkout root)::

    python3 e2ebench/run.py --workload serve_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace
1`` runs half the window untraced and half traced, and reports the
per-layer metrics of the traced half plus the tracing overhead. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; details (environment, per-layer
breakdown, correctness failures) go to ``e2ebench/out/``. See README.md.
"""

from __future__ import annotations

import time

RUN_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("serve_cold", "serve_rw", "chain_opt", "sparsest")


def make_workload(name: str):
    if name in ("serve_cold", "serve_rw"):
        from serve_load import ServeWorkload

        return ServeWorkload(name)
    from inproc import ChainWorkload, SparsestWorkload

    return ChainWorkload() if name == "chain_opt" else SparsestWorkload()


def timed_window(workload, state, seconds: float, first_index: int, recorder=None,
                 rss=None):
    """Closed loop: run operations back to back for *seconds*, then finish
    the current round of ``workload.round_ops`` operations, so every run
    measures whole rounds of the same mix.

    Returns ``(operations, wall_seconds)`` with operations as ``(index,
    kind, ok, start, end)``; an operation that raises counts as failed.
    With *recorder*, each operation is recorded as a root span.
    With *rss* (a dict), peak memory is read after ``workload.rss_ops``
    operations, or at the end when fewer ran, so it does not grow with
    throughput.
    """
    operations = []
    begin = time.perf_counter()
    deadline = begin + seconds
    index = first_index
    while time.perf_counter() < deadline or (index - first_index) % workload.round_ops:
        try:
            if recorder is not None:
                with recorder.operation(index, "op") as op:
                    kind, ok, start, end = workload.operation(state, index)
                    op.span[2] = kind
            else:
                kind, ok, start, end = workload.operation(state, index)
        except Exception as exc:  # noqa: BLE001 - counted, reported, loop goes on
            print(f"operation {index} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            kind, ok, start, end = "error", False, time.perf_counter(), time.perf_counter()
        operations.append((index, kind, ok, start, end))
        index += 1
        if rss is not None and len(operations) == workload.rss_ops:
            rss["mb"] = workload.peak_rss_mb(state)
    wall = time.perf_counter() - begin
    if rss is not None and "mb" not in rss:
        rss["mb"] = workload.peak_rss_mb(state)
    return operations, wall


def latencies(operations, kinds) -> List[float]:
    return [end - start for _, kind, ok, start, end in operations if kind in kinds and ok]


def end_to_end(workload, operations, wall, setup_s, rss_mb) -> Dict[str, Tuple[float, str]]:
    estimates = latencies(operations, workload.estimate_kinds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (len(operations) / wall, "1/s"),
    }
    metrics.update(common.latency_metrics(estimates, workload.tail_q))
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def write_metrics(operations) -> Dict[str, Tuple[float, str]]:
    writes = latencies(operations, ("write",))
    if not writes:
        return {"write_p50_ms": (0.0, "ms"), "write_tail_ms": (0.0, "ms")}
    tail_q = common.tail_percentile(len(writes)) or common.TAIL_CANDIDATES[-1]
    return common.latency_metrics(writes, tail_q, prefix="write")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {common.ROOT / 'src'}", file=sys.stderr)
        return 2
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    cache_dir = common.OUT_DIR / f"cache-{args.workload}-{args.seed}"
    common.pin_environment(cache_dir)

    import importlib

    import tracing

    workload = make_workload(args.workload)
    for module in workload.modules:
        importlib.import_module(module)
    imports_s = time.perf_counter() - RUN_START
    # Untimed: the environment record (with its calibration loop) and the
    # dataset cache fill, so setup_s always sees a warm cache.
    env = common.environment_record()
    workload.prepare(args.seed)

    traced = bool(args.trace)
    if traced:
        tracing.preload()
    setups = 1 if traced else workload.setups
    setup_times = []
    state = None
    for _ in range(setups):
        if state is not None:
            workload.teardown(state)
        begin = time.perf_counter()
        state = workload.setup(args.seed, traced)
        setup_times.append(time.perf_counter() - begin)
    setup_s = imports_s + common.median(setup_times)

    report: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "imports_s": imports_s,
        "setup_times_s": setup_times,
    }
    try:
        if traced:
            half = args.seconds / 2
            plain_ops, plain_wall = timed_window(workload, state, half, 0)
            recorder = tracing.SpanRecorder()
            stop_tracing = workload.start_tracing(state, recorder)
            try:
                traced_ops, traced_wall = timed_window(
                    workload, state, half, len(plain_ops),
                    recorder if workload.records_operations else None,
                )
            finally:
                stop_tracing()
            operations = plain_ops + traced_ops
        else:
            rss: Dict[str, float] = {}
            operations, wall = timed_window(workload, state, args.seconds, 0, rss=rss)
            rss_mb = rss["mb"]
    finally:
        server_spans = workload.teardown(state)

    failures = workload.verify(state)
    failed_ops = sum(1 for op in operations if not op[2])
    attempted = len(operations)
    failed = failed_ops + len(failures)
    extra = workload.extra_metrics(state)

    if traced:
        window = [(i, kind, start, end) for i, kind, ok, start, end in traced_ops]
        if server_spans:
            spans = tracing.join_to_operations(
                [(i, start, end) for i, _, start, end in window], server_spans
            )
        else:
            spans = recorder.finished_spans()
        layers = tracing.layer_metrics(spans, window, traced_wall, workload.estimate_kinds)
        span_file = common.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        span_file.write_text(json.dumps({
            "fields": tracing.FIELDS, "operations": window, "spans": spans,
        }))
        if layers["trace.layer_sum_share"] > 1.05:
            failures.append("layer self times exceed the traced wall time")
            failed += 1
        metrics = {name: (value, tracing.UNITS[name]) for name, value in layers.items()}
        # Traced minus untraced throughput: negative by the cost of tracing.
        metrics["trace.overhead_ops_s"] = (
            len(traced_ops) / traced_wall - len(plain_ops) / plain_wall, "1/s"
        )
        metrics.update(write_metrics(plain_ops))
        metrics["failed_ratio"] = (failed / max(attempted, 1), "ratio")
        metrics["rel_error_geomean"] = extra.pop("rel_error_geomean", (0.0, "ratio"))
        metrics["serve.read_miss_ratio"] = extra.pop("serve.read_miss_ratio", (0.0, "ratio"))
    else:
        metrics = end_to_end(workload, operations, wall, setup_s, rss_mb)
        begin = operations[0][3]
        slices = [0] * int(args.seconds + 1)
        for op in operations:
            slices[min(int(op[4] - begin), len(slices) - 1)] += 1
        report["ops_per_second_slice"] = slices
        report["write"] = write_metrics(operations)
        report["extra"] = extra

    report.update({
        "attempted": attempted, "failed": failed, "failures": failures[:50],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    })
    out = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str))
    shutil.rmtree(cache_dir, ignore_errors=True)
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(common.result_line(not failures and failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------

- ``info`` — library version, registered estimators, use cases.
- ``estimators [--format json]`` — the authoritative estimator listing
  (``repro.estimators.available_estimators()``): every registered name
  with its contract tags and adaptive-router cost tier, plus the
  ``auto`` routing pseudo-estimator.
- ``sketch FILE.npz`` — build and summarize the MNC sketch of a stored
  matrix.
- ``estimate A.npz B.npz [--estimator NAME|auto] [--tolerance W]
  [--exact] [--catalog DIR]`` — estimate the sparsity of the product
  ``A B``; ``--estimator auto`` (implied by ``--tolerance``) routes
  through the adaptive tier ladder and reports the chosen tier (see
  ``docs/ROUTING.md``); with ``--catalog`` sketches are reused from and
  persisted to an on-disk sketch catalog.
- ``catalog {stats,warm,clear} DIR`` — inspect, pre-populate, or empty an
  on-disk sketch catalog (``<fingerprint>.npz`` files, see
  ``docs/CATALOG.md``); ``catalog stats --format json`` emits the same
  summary as a JSON document for scripting.
- ``serve [--host H --port P --catalog DIR --shards K
  --budget-bytes B --ttl SECONDS --estimator NAME|auto --tolerance W]``
  — run the multi-tenant estimation server (``POST /matrices``,
  ``POST /estimate``, ``GET /stats|/metrics|/healthz``) over a
  fingerprint-sharded store warm-started from ``--catalog``; with
  ``--catalog`` the learned routing policy is persisted alongside the
  sketches on shutdown; see ``docs/SERVING.md``.
- ``sparsest [--cases ...] [--estimators ...] [--scale S]
  [--tolerance W]`` — run SparsEst use cases and print the
  relative-error table (``auto`` is a valid estimator entry and obeys
  ``--tolerance``).
- ``optimize --dims d0,d1,...,dk --sparsities s1,...,sk`` — optimize a
  random matrix chain with the dense and sparsity-aware DPs.
- ``verify [--cells ... --budget N --seed S --corpus DIR]`` — fuzz every
  (estimator x contract x generator) cell against the exact oracle,
  shrinking violations to minimal reproducers (see ``docs/VERIFY.md``);
  ``--self-test`` injects a fault to prove the shrinker works.
- ``stats FILE [FILE ...]`` — summarize one or more trace / metrics files
  (merging them when several are given, e.g. per-worker dumps): per-span
  aggregates (count/total/mean/p95), counters, the metrics snapshot and
  accuracy residual ledger, and the error-vs-time report. ``--format json``
  emits the same data as a JSON document; ``--prometheus FILE`` writes the
  merged metrics in Prometheus text exposition format.

Every command except ``info``/``stats`` accepts ``--trace FILE`` to record
an observability trace (spans from sketch construction, estimation,
propagation, plus per-(use case, estimator) outcomes) as JSON lines,
``--metrics FILE`` to dump the process metrics snapshot as JSONL, and
``--flight-recorder FILE`` to arm the postmortem flight recorder; see
``docs/OBSERVABILITY.md``.

``sparsest`` and ``verify`` additionally accept ``--workers N`` to fan
independent estimation work out across worker processes (default
``$REPRO_WORKERS`` or 1; results match a serial run — see
``docs/PARALLEL.md``). Worker traces are merged into the parent's
``--trace`` output.

Data commands (and ``estimators``/``serve``) accept ``--backend NAME``
to pick the kernel backend for the estimation hot paths — ``numpy``
(always available), ``numba`` (compiled), or ``auto`` (default:
``$REPRO_BACKEND``, else numba when importable). The selection is
exported via ``$REPRO_BACKEND`` so ``--workers`` subprocesses inherit
it; estimates are bit-identical across backends (see
docs/PERFORMANCE.md "Backends").

Matrices are exchanged in scipy ``.npz`` sparse format
(:func:`repro.matrix.io.save_matrix`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MNC sparsity estimation (SIGMOD 2019 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Shared telemetry flags: accepted after any data subcommand, e.g.
    # ``python -m repro sparsest --trace out.jsonl``.
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record an observability trace (JSON lines) to FILE; includes "
             "the metrics snapshot and accuracy residual ledger",
    )
    tracing.add_argument(
        "--flight-recorder", metavar="FILE", default=None,
        help="arm the flight recorder: dump a postmortem JSON to FILE on "
             "estimator exceptions, failed parallel tasks, or error spans "
             "(also honors $REPRO_FLIGHT_DUMP)",
    )
    tracing.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write a metrics snapshot (counters, gauges, histograms, "
             "residual ledger) as JSONL to FILE when the command finishes",
    )

    # Shared fan-out flag for the commands with parallel execution paths.
    parallelism = argparse.ArgumentParser(add_help=False)
    parallelism.add_argument(
        "--workers", type=int, metavar="N", default=None,
        help="worker processes for independent estimation work "
             "(default: $REPRO_WORKERS or 1; results are identical to a "
             "serial run)",
    )

    # Shared kernel-backend flag; exported via $REPRO_BACKEND so worker
    # processes inherit the selection (results are bit-identical across
    # backends either way — see docs/PERFORMANCE.md "Backends").
    backend_opts = argparse.ArgumentParser(add_help=False)
    backend_opts.add_argument(
        "--backend", metavar="NAME", default=None,
        help="kernel backend for the estimation hot paths: numpy, numba, "
             "or auto (default: $REPRO_BACKEND, else auto-detect; an "
             "unavailable or unknown backend falls back to numpy with a "
             "warning)",
    )

    commands.add_parser("info", help="show version, estimators, use cases")

    estimators_cmd = commands.add_parser(
        "estimators",
        help="list registered estimators with contract tags and router "
             "cost tiers",
        parents=[backend_opts],
    )
    estimators_cmd.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )

    sketch_cmd = commands.add_parser(
        "sketch", help="summarize a matrix's MNC sketch",
        parents=[tracing, backend_opts]
    )
    sketch_cmd.add_argument("matrix", help="path to a .npz sparse matrix")

    estimate_cmd = commands.add_parser(
        "estimate", help="estimate the sparsity of a product A @ B",
        parents=[tracing, backend_opts],
    )
    estimate_cmd.add_argument("left", help="path to A (.npz)")
    estimate_cmd.add_argument("right", help="path to B (.npz)")
    estimate_cmd.add_argument(
        "--estimator", default=None, metavar="NAME",
        help="estimator name as listed by 'repro estimators', or 'auto' for "
             "adaptive tier routing (default: mnc, or auto when --tolerance "
             "is given)",
    )
    estimate_cmd.add_argument(
        "--tolerance", type=float, default=None, metavar="W",
        help="maximum relative uncertainty width for adaptive routing "
             "(implies --estimator auto)",
    )
    estimate_cmd.add_argument(
        "--exact", action="store_true",
        help="also compute the exact result and the relative error",
    )
    estimate_cmd.add_argument(
        "--catalog", metavar="DIR", default=None,
        help="reuse/persist MNC sketches through an on-disk catalog directory",
    )

    sparsest_cmd = commands.add_parser(
        "sparsest", help="run SparsEst use cases",
        parents=[tracing, parallelism, backend_opts]
    )
    sparsest_cmd.add_argument(
        "--cases", default="",
        help="comma-separated use-case ids (default: all)",
    )
    sparsest_cmd.add_argument(
        "--estimators", default="meta_ac,mnc,density_map",
        help="comma-separated estimator names",
    )
    sparsest_cmd.add_argument("--scale", type=float, default=0.05)
    sparsest_cmd.add_argument("--seed", type=int, default=0)
    sparsest_cmd.add_argument(
        "--tolerance", type=float, default=None, metavar="W",
        help="maximum relative uncertainty width for 'auto' estimator "
             "entries (ignored by concrete estimators)",
    )

    optimize_cmd = commands.add_parser(
        "optimize", help="optimize a random matrix-product chain",
        parents=[tracing, backend_opts],
    )
    optimize_cmd.add_argument(
        "--dims", required=True,
        help="comma-separated boundary dimensions d0,...,dk (k matrices)",
    )
    optimize_cmd.add_argument(
        "--sparsities", required=True,
        help="comma-separated sparsity per matrix (k values)",
    )
    optimize_cmd.add_argument("--seed", type=int, default=0)

    verify_cmd = commands.add_parser(
        "verify", help="fuzz estimator contracts against the exact oracle",
        parents=[tracing, parallelism, backend_opts],
    )
    verify_cmd.add_argument(
        "--budget", type=int, default=100,
        help="seeded cases per generator (default 100)",
    )
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.add_argument(
        "--cells", default="",
        help="comma-separated estimator:contract:generator fnmatch patterns "
             "(e.g. 'mnc:*:*,*:bounds:adversarial')",
    )
    verify_cmd.add_argument(
        "--estimators", default="",
        help="comma-separated estimator names (default: all registered)",
    )
    verify_cmd.add_argument(
        "--generators", default="",
        help="comma-separated generator names (default: all)",
    )
    verify_cmd.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="save shrunk violations as reproducers under DIR",
    )
    verify_cmd.add_argument(
        "--no-shrink", action="store_true",
        help="report original failing cases without shrinking",
    )
    verify_cmd.add_argument(
        "--self-test", action="store_true",
        help="inject a faulty estimator and prove the engine shrinks it",
    )

    stats_cmd = commands.add_parser(
        "stats", help="summarize --trace / metrics JSONL files"
    )
    stats_cmd.add_argument(
        "trace_files", nargs="+", metavar="FILE",
        help="one or more trace or metrics files (.jsonl); several files "
             "(e.g. per-worker or per-shard dumps) are merged",
    )
    stats_cmd.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    stats_cmd.add_argument(
        "--prometheus", metavar="FILE", default=None,
        help="additionally write the merged metrics in Prometheus text "
             "exposition format to FILE ('-' for stdout)",
    )

    catalog_cmd = commands.add_parser(
        "catalog", help="manage an on-disk sketch catalog directory"
    )
    catalog_sub = catalog_cmd.add_subparsers(dest="catalog_command", required=True)
    catalog_stats = catalog_sub.add_parser(
        "stats", help="summarize the sketches stored in a catalog"
    )
    catalog_stats.add_argument("directory", help="catalog directory")
    catalog_stats.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    catalog_warm = catalog_sub.add_parser(
        "warm", help="sketch matrices into a catalog (skips cached entries)"
    )
    catalog_warm.add_argument("directory", help="catalog directory")
    catalog_warm.add_argument(
        "matrices", nargs="+", help=".npz sparse matrices to sketch"
    )
    catalog_clear = catalog_sub.add_parser(
        "clear", help="delete every sketch in a catalog"
    )
    catalog_clear.add_argument("directory", help="catalog directory")

    serve_cmd = commands.add_parser(
        "serve", help="run the multi-tenant estimation server",
        parents=[backend_opts],
    )
    serve_cmd.add_argument(
        "--workers", type=int, metavar="N", default=None,
        help="accepted for compatibility and ignored: the server answers "
             "every request on its one estimation thread",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 picks a free port)",
    )
    serve_cmd.add_argument(
        "--catalog", metavar="DIR", default=None,
        help="sketch catalog directory: warm-started on boot, used as the "
             "store's spill/persistence tier",
    )
    serve_cmd.add_argument(
        "--shards", type=int, default=8,
        help="store shard count (independent locks/budgets; default 8)",
    )
    serve_cmd.add_argument(
        "--budget-bytes", type=int, default=None, metavar="B",
        help="total in-memory sketch budget across shards (default 64 MiB)",
    )
    serve_cmd.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="idle seconds before a resident sketch demotes to the disk "
             "tier (default: no TTL)",
    )
    serve_cmd.add_argument(
        "--estimator", default=None, metavar="NAME",
        help="estimator name as listed by 'repro estimators', or 'auto' for "
             "adaptive tier routing (default: mnc, or auto when --tolerance "
             "is given)",
    )
    serve_cmd.add_argument(
        "--tolerance", type=float, default=None, metavar="W",
        help="default maximum relative uncertainty width for adaptive "
             "routing (implies --estimator auto; requests may override)",
    )
    return parser


def _maybe_record(estimator):
    """Wrap *estimator* in the telemetry proxy when a trace is being taken."""
    from repro.observability import RecordingEstimator, get_collector

    if get_collector().enabled:
        return RecordingEstimator(estimator)
    return estimator


def _backend_summary() -> str:
    """One-line description of the active kernel backend."""
    from repro import backends

    backend = backends.get_backend()
    kind = "compiled" if backend.compiled else "interpreted"
    availability = ", ".join(
        name for name, ok in backends.available_backends().items() if ok
    )
    return f"{backend.name} ({kind}; available: {availability})"


def _cmd_info() -> int:
    import repro
    from repro.estimators import available_estimators
    from repro.sparsest import use_case_ids

    print(f"repro {repro.__version__} — MNC sparsity estimation")
    print(f"estimators: {', '.join(available_estimators())}")
    print(f"use cases:  {', '.join(use_case_ids())}")
    print(f"backend:    {_backend_summary()}")
    return 0


def _cmd_estimators(output_format: str = "table") -> int:
    """The authoritative estimator listing.

    ``repro.estimators.available_estimators()`` is the source of truth for
    valid ``--estimator`` names; this command decorates it with each
    estimator's contract tags and its rung on the adaptive router's cost
    ladder (``-`` for estimators the router never picks, e.g. bitset).
    """
    import json as json_module

    from repro.router import estimator_catalog

    from repro import backends

    rows = estimator_catalog()
    if output_format == "json":
        backend = backends.get_backend()
        payload = {
            "estimators": rows,
            "backend": {
                "name": backend.name,
                "compiled": backend.compiled,
                "available": backends.available_backends(),
            },
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    header = f"{'name':<14} {'label':<10} {'cost tier':>9}  tags"
    print(header)
    print("-" * len(header))
    for row in rows:
        tier = "-" if row["cost_tier"] is None else str(row["cost_tier"])
        print(f"{row['name']:<14} {row['label']:<10} {tier:>9}  "
              f"{', '.join(row['tags'])}")
    print(f"{'auto':<14} {'Auto':<10} {'adaptive':>9}  "
          f"routes across tiers until --tolerance is met")
    print(f"kernel backend: {_backend_summary()}")
    return 0


def _cmd_sketch(path: str) -> int:
    from repro.core.sketch import MNCSketch
    from repro.matrix.io import load_matrix

    matrix = load_matrix(path)
    sketch = MNCSketch.from_matrix(matrix)
    print(f"matrix:   {sketch.nrows} x {sketch.ncols}, nnz {sketch.total_nnz:,} "
          f"(sparsity {sketch.sparsity:.6g})")
    print(f"max nnz per row/column: {sketch.max_hr} / {sketch.max_hc}")
    print(f"non-empty rows/columns: {sketch.nnz_rows:,} / {sketch.nnz_cols:,}")
    print(f"single-nnz rows/columns: {sketch.rows_single:,} / {sketch.cols_single:,}")
    print(f"half-full rows/columns: {sketch.rows_half_full:,} / {sketch.cols_half_full:,}")
    print(f"extensions: {sketch.has_extensions}, fully diagonal: {sketch.fully_diagonal}")
    print(f"sketch size: {sketch.size_bytes():,} bytes")
    return 0


def _print_route(decision) -> None:
    """Render one routing decision's summary lines."""
    certainty = "certified" if decision.certified else "heuristic"
    print(f"router: tier {decision.tier} ({decision.estimator}), "
          f"{decision.escalations} escalation(s), {decision.skipped} "
          f"tier(s) skipped")
    print(f"  width {decision.width:.4g} <= tolerance {decision.tolerance:g} "
          f"({certainty} interval [{decision.lower:,.0f}, "
          f"{decision.upper:,.0f}])")


def _cmd_estimate(
    left: str,
    right: str,
    estimator_name: Optional[str],
    exact: bool,
    catalog_dir: Optional[str] = None,
    tolerance: Optional[float] = None,
) -> int:
    from repro.estimators.spec import EstimatorSpec
    from repro.matrix.io import load_matrix
    from repro.opcodes import Op

    spec = EstimatorSpec.parse(estimator_name, tolerance=tolerance)
    a = load_matrix(left)
    b = load_matrix(right)
    label = spec.name
    if catalog_dir:
        from repro.catalog import EstimationService, ServiceRequest, SketchStore
        from repro.ir.nodes import leaf

        service = EstimationService(
            spec, store=SketchStore(spill_dir=catalog_dir)
        )
        result = service.submit(ServiceRequest.estimate(leaf(a) @ leaf(b)))
        nnz = result["nnz"]
        stored = service.persist(catalog_dir)
        store_stats = service.store.stats()
        print(f"catalog: {store_stats.disk_hits} sketch(es) reused from "
              f"{catalog_dir}, {stored} persisted")
        router_meta = result.get("router")
        if router_meta is not None:
            label = router_meta["estimator"]
            print(f"router: tier {router_meta['tier']} ({label}), "
                  f"{router_meta['escalations']} escalation(s), "
                  f"width {router_meta['width']:.4g} <= tolerance "
                  f"{router_meta['tolerance']:g}")
        else:
            label = spec.make().name
    elif spec.is_auto:
        from repro.ir.nodes import leaf
        from repro.router import AdaptiveRouter

        router = AdaptiveRouter.from_spec(spec)
        nnz, decision = router.route(leaf(a) @ leaf(b))
        label = decision.estimator
        _print_route(decision)
    else:
        estimator = _maybe_record(spec.make())
        synopses = [estimator.build(a), estimator.build(b)]
        nnz = estimator.estimate_nnz(Op.MATMUL, synopses)
        label = estimator.name
    cells = a.shape[0] * b.shape[1]
    print(f"{label} estimate: nnz ~ {nnz:,.0f}, "
          f"sparsity ~ {nnz / cells:.6g}")
    if exact:
        from repro.matrix.ops import matmul
        from repro.sparsest.metrics import relative_error

        truth = matmul(a, b).nnz
        print(f"exact:          nnz = {truth:,}, sparsity = {truth / cells:.6g}")
        print(f"relative error: {relative_error(truth, nnz):.4f}")
    return 0


def _cmd_sparsest(
    cases: str,
    estimators: str,
    scale: float,
    seed: int,
    workers: Optional[int] = None,
    tolerance: Optional[float] = None,
) -> int:
    from repro.sparsest import all_use_cases, get_use_case
    from repro.sparsest.report import outcomes_table, timings_table
    from repro.sparsest.runner import execute_outcomes, requests_for

    if cases:
        selected = [get_use_case(case_id.strip()) for case_id in cases.split(",")]
    else:
        selected = all_use_cases()
    names = [name.strip() for name in estimators.split(",")]
    # Name-based requests: each (use case, estimator) cell materializes a
    # fresh, identically-seeded estimator (or adaptive router, for "auto"
    # entries) — in workers or in-process — so the tables are the same for
    # every --workers value.
    requests = requests_for(
        selected, names, scale=scale, seed=seed, tolerance=tolerance
    )
    outcomes = execute_outcomes(requests, workers=workers)
    print(outcomes_table(outcomes, title=f"SparsEst relative errors (scale={scale})"))
    print()
    print(timings_table(outcomes, title="Estimation time [s]"))
    if len(names) > 1:
        from repro.sparsest.summary import summary_table

        print()
        print(summary_table(outcomes, title="Per-estimator summary"))
    return 0


def _cmd_optimize(dims: str, sparsities: str, seed: int) -> int:
    from repro.core.sketch import MNCSketch
    from repro.optimizer import (
        optimize_chain_dense,
        optimize_chain_sparse,
        plan_cost_estimated,
        plan_to_string,
    )

    try:
        boundary = [int(value) for value in dims.split(",")]
        sparsity_values = [float(value) for value in sparsities.split(",")]
    except ValueError as exc:
        print(f"error: could not parse --dims/--sparsities: {exc}", file=sys.stderr)
        return 2
    if len(boundary) != len(sparsity_values) + 1:
        print("error: need k+1 dims for k sparsities", file=sys.stderr)
        return 2
    rng = np.random.default_rng(seed)
    sketches = [
        MNCSketch.synthetic(m, n, s, rng)
        for (m, n), s in zip(zip(boundary, boundary[1:]), sparsity_values)
    ]
    dense = optimize_chain_dense([h.shape for h in sketches])
    sparse = optimize_chain_sparse(sketches, rng=rng)
    dense_cost = plan_cost_estimated(dense.plan, sketches, rng=rng)
    sparse_cost = plan_cost_estimated(sparse.plan, sketches, rng=rng)
    print(f"dense-DP plan:  {plan_to_string(dense.plan)}")
    print(f"  estimated sparse cost: {dense_cost:,.0f}")
    print(f"sparse-DP plan: {plan_to_string(sparse.plan)}")
    print(f"  estimated sparse cost: {sparse_cost:,.0f}")
    if sparse_cost > 0:
        print(f"dense plan overhead: {dense_cost / sparse_cost:.2f}x")
    return 0


def _cmd_verify(
    budget: int,
    seed: int,
    cells: str,
    estimators: str,
    generators: str,
    corpus_dir: Optional[str],
    shrink: bool,
    self_test: bool,
    workers: Optional[int] = None,
) -> int:
    from repro.verify import (
        FuzzEngine,
        default_estimator_specs,
        injected_fault_selftest,
    )

    if self_test:
        record = injected_fault_selftest()
        m, n = record.shrunk.root.shape
        print("self-test: injected fault detected and shrunk to "
              f"{m}x{n} in {record.shrink_steps} steps")
        print(f"  {record.shrunk_message}")
        return 0

    specs = default_estimator_specs(
        [name.strip() for name in estimators.split(",") if name.strip()] or None
    )
    engine = FuzzEngine(
        specs=specs,
        generators=[g.strip() for g in generators.split(",") if g.strip()] or None,
        budget=budget,
        seed=seed,
        shrink=shrink,
        cell_patterns=[p.strip() for p in cells.split(",") if p.strip()] or None,
        workers=workers,
    )
    report = engine.run()

    print(f"verify: budget {budget} x {len(engine.generators)} generators, "
          f"seed {seed}")
    header = f"{'estimator':<18} {'contract':<26} {'checked':>8} {'skipped':>8} {'bad':>4}"
    print(header)
    print("-" * len(header))
    for estimator, contract, checked, skipped, bad in report.summary_rows():
        if checked == 0 and bad == 0:
            continue
        print(f"{estimator:<18} {contract:<26} {checked:>8} {skipped:>8} {bad:>4}")
    print(f"total: {report.checked} checks, {report.skipped} skipped, "
          f"{len(report.violations)} violation(s)")

    for record in report.violations:
        print()
        print(f"VIOLATION {record.cell}#{record.case.index}")
        print(f"  {record.shrunk_message}")
        print(f"  case: {record.shrunk.describe()}")
        if record.shrink_steps:
            print(f"  shrunk from {record.case.describe()} "
                  f"in {record.shrink_steps} steps")
    if corpus_dir and report.violations:
        from repro.verify import Reproducer, save_reproducer

        for record in report.violations:
            path = save_reproducer(
                Reproducer.from_violation(record), corpus_dir
            )
            print(f"  reproducer -> {path}")
    return 1 if report.violations else 0


def _stats_json(data) -> dict:
    """The ``--format json`` payload for merged trace/metrics data."""
    from dataclasses import asdict

    from repro.observability import aggregate_spans

    payload: dict = {
        "spans": [asdict(entry) for entry in aggregate_spans(data.spans)],
        "outcomes": data.outcomes,
        "metrics": data.metrics.to_dict() if data.metrics is not None else None,
        "residuals": [record.to_dict() for record in data.residuals],
    }
    if data.metrics is not None:
        payload["metric_histograms"] = data.metrics.histogram_summaries()
    return payload


def _cmd_stats(
    trace_files: Sequence[str],
    output_format: str = "table",
    prometheus: Optional[str] = None,
) -> int:
    import json as json_module

    from repro.observability import (
        aggregate_spans,
        error_time_table,
        merge_trace_data,
        prometheus_exposition,
        read_trace,
        residual_table,
        stats_table,
    )

    parts = []
    for trace_file in trace_files:
        try:
            parts.append(read_trace(trace_file))
        except OSError as exc:
            print(f"error: cannot read trace file: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # json decode errors subclass ValueError
            print(f"error: malformed trace file {trace_file}: {exc}",
                  file=sys.stderr)
            return 2
    data = merge_trace_data(parts)

    if prometheus is not None:
        if data.metrics is None:
            print("error: --prometheus needs at least one metrics record",
                  file=sys.stderr)
            return 2
        snapshot = data.metrics
        snapshot.residuals = list(data.residuals)
        exposition = prometheus_exposition(snapshot)
        if prometheus == "-":
            print(exposition, end="")
        else:
            with open(prometheus, "w", encoding="utf-8") as handle:
                handle.write(exposition)
            print(f"prometheus exposition -> {prometheus}", file=sys.stderr)

    if output_format == "json":
        payload = _stats_json(data)
        from repro import backends

        backend = backends.get_backend()
        payload["backend"] = {
            "name": backend.name,
            "compiled": backend.compiled,
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"Kernel backend: {_backend_summary()}")
    empty = not (
        data.spans or data.outcomes or data.residuals
        or (data.metrics is not None)
    )
    if empty:
        noun = "file" if len(trace_files) == 1 else "files"
        print(f"trace {noun} {', '.join(trace_files)} hold no records")
        return 0
    if data.spans:
        print(stats_table(
            aggregate_spans(data.spans),
            title=f"Span aggregates ({len(data.spans)} spans)",
        ))
    if data.metrics is not None:
        snapshot = data.metrics
        print()
        print(f"Metrics (schema v{snapshot.version})")
        for name, value in sorted(snapshot.counters.items()):
            print(f"  {name} = {value:g}")
        for name, value in sorted(snapshot.gauges.items()):
            print(f"  {name} ~ {value:g}  [gauge]")
        for name, summary in snapshot.histogram_summaries().items():
            print(f"  {name}: n={summary['count']:g} mean={summary['mean']:g} "
                  f"p50={summary['p50']:g} p95={summary['p95']:g} "
                  f"p99={summary['p99']:g} max={summary['max']:g}")
    if data.residuals:
        print()
        print(residual_table(
            data.residuals,
            title=f"Accuracy residual ledger ({len(data.residuals)} entries)",
        ))
    if data.outcomes:
        print()
        print(error_time_table(
            data.outcomes, title="Error vs time per (use case, estimator)"
        ))
    return 0


def _cmd_catalog_stats(directory: str, output_format: str = "table") -> int:
    import json as json_module
    from pathlib import Path

    from repro.catalog.store import load_sketch_or_none

    root = Path(directory)
    if not root.is_dir():
        print(f"error: catalog directory {directory} does not exist",
              file=sys.stderr)
        return 2
    files = sorted(root.glob("*.npz"))
    entries = []
    skipped = 0
    for path in files:
        sketch = load_sketch_or_none(path)
        if sketch is None:
            skipped += 1
            continue
        entries.append((path.stem, sketch))
    if output_format == "json":
        payload = {
            "directory": str(root),
            "sketches": [
                {
                    "fingerprint": stem,
                    "shape": [sketch.nrows, sketch.ncols],
                    "nnz": int(sketch.total_nnz),
                    "bytes": sketch.size_bytes(),
                    "has_extensions": bool(sketch.has_extensions),
                }
                for stem, sketch in entries
            ],
            "count": len(entries),
            "skipped": skipped,
            "total_bytes": sum(s.size_bytes() for _, s in entries),
            "total_nnz": int(sum(s.total_nnz for _, s in entries)),
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not files:
        print(f"catalog {directory}: empty")
        return 0
    total_bytes = 0
    total_nnz = 0
    for stem, sketch in entries:
        total_bytes += sketch.size_bytes()
        total_nnz += sketch.total_nnz
        print(f"  {stem[:16]:<16}  {sketch.nrows:>8} x {sketch.ncols:<8} "
              f"nnz {sketch.total_nnz:>12,}  {sketch.size_bytes():>10,} B"
              + ("  +ext" if sketch.has_extensions else ""))
    print(f"catalog {directory}: {len(entries)} sketch(es), "
          f"{total_bytes:,} bytes, {total_nnz:,} summarized non-zeros"
          + (f" ({skipped} unreadable file(s) skipped)" if skipped else ""))
    return 0


def _cmd_catalog_warm(directory: str, matrices: Sequence[str]) -> int:
    from pathlib import Path

    from repro.catalog import fingerprint_matrix
    from repro.core.serialize import save_sketch
    from repro.core.sketch import MNCSketch
    from repro.matrix.io import load_matrix

    root = Path(directory)
    built = cached = 0
    for source in matrices:
        matrix = load_matrix(source)
        fingerprint = fingerprint_matrix(matrix)
        target = root / f"{fingerprint}.npz"
        if target.exists():
            cached += 1
            print(f"  {source}: already cataloged ({fingerprint[:16]})")
            continue
        sketch = MNCSketch.from_matrix(matrix)
        save_sketch(target, sketch)
        built += 1
        print(f"  {source}: sketched {sketch.nrows}x{sketch.ncols} "
              f"-> {fingerprint[:16]} ({sketch.size_bytes():,} B)")
    print(f"catalog {directory}: {built} built, {cached} already cached")
    return 0


def _cmd_catalog_clear(directory: str) -> int:
    from pathlib import Path

    root = Path(directory)
    if not root.is_dir():
        print(f"error: catalog directory {directory} does not exist",
              file=sys.stderr)
        return 2
    removed = 0
    for path in root.glob("*.npz"):
        path.unlink()
        removed += 1
    print(f"catalog {directory}: removed {removed} sketch(es)")
    return 0


def _cmd_serve(
    host: str,
    port: int,
    catalog: Optional[str],
    shards: int,
    budget_bytes: Optional[int],
    ttl: Optional[float],
    estimator: Optional[str],
    tolerance: Optional[float] = None,
) -> int:
    from pathlib import Path

    from repro.catalog.service import EstimationService
    from repro.catalog.store import DEFAULT_BUDGET_BYTES, SketchStore
    from repro.estimators.spec import EstimatorSpec
    from repro.serve.server import EstimationServer

    from repro import backends

    spec = EstimatorSpec.parse(estimator, tolerance=tolerance)
    # Warm the kernel backend before accepting traffic so the first
    # request never pays JIT compile time; the cost is recorded as the
    # backend.jit_compile_seconds gauge (visible under GET /metrics).
    # The report prints after the announce line — tooling reads the
    # first stderr line for the listening URL.
    warm_seconds = backends.warmup()
    spill_dir = None
    if catalog is not None:
        spill_dir = Path(catalog)
        spill_dir.mkdir(parents=True, exist_ok=True)
    store = SketchStore(
        num_shards=shards,
        budget_bytes=budget_bytes if budget_bytes is not None else DEFAULT_BUDGET_BYTES,
        spill_dir=spill_dir,
        ttl_seconds=ttl,
    )
    if spill_dir is not None:
        warmed = store.warm_start(spill_dir)
        if warmed:
            print(f"warm start: {len(warmed)} sketch(es) from {catalog}",
                  file=sys.stderr)
    service = EstimationService(spec, store=store)
    server = EstimationServer(service=service, host=host, port=port)
    def _announce(h: str, p: int) -> None:
        print(f"repro serve: listening on http://{h}:{p}", file=sys.stderr)
        print(f"backend: {backends.get_backend().name} kernels warm "
              f"in {warm_seconds:.3f}s", file=sys.stderr)

    try:
        server.run(announce=_announce)
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        if spill_dir is not None:
            # Persists the sketches and, when routing, the learned policy.
            service.persist(str(spill_dir))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "info":
        return _cmd_info()
    if args.command == "estimators":
        return _cmd_estimators(args.format)
    if args.command == "sketch":
        return _cmd_sketch(args.matrix)
    if args.command == "estimate":
        return _cmd_estimate(
            args.left, args.right, args.estimator, args.exact, args.catalog,
            tolerance=args.tolerance,
        )
    if args.command == "sparsest":
        return _cmd_sparsest(
            args.cases, args.estimators, args.scale, args.seed,
            workers=args.workers, tolerance=args.tolerance,
        )
    if args.command == "optimize":
        return _cmd_optimize(args.dims, args.sparsities, args.seed)
    if args.command == "verify":
        return _cmd_verify(
            args.budget, args.seed, args.cells, args.estimators,
            args.generators, args.corpus, not args.no_shrink, args.self_test,
            workers=args.workers,
        )
    if args.command == "stats":
        return _cmd_stats(args.trace_files, args.format, args.prometheus)
    if args.command == "catalog":
        if args.catalog_command == "stats":
            return _cmd_catalog_stats(args.directory, args.format)
        if args.catalog_command == "warm":
            return _cmd_catalog_warm(args.directory, args.matrices)
        if args.catalog_command == "clear":
            return _cmd_catalog_clear(args.directory)
    if args.command == "serve":
        return _cmd_serve(
            args.host, args.port, args.catalog, args.shards,
            args.budget_bytes, args.ttl, args.estimator,
            tolerance=args.tolerance,
        )
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    backend_name = getattr(args, "backend", None)
    if backend_name:
        import os

        from repro import backends

        # Export through the environment (not just set_backend) so worker
        # processes spawned by --workers inherit the same selection.
        os.environ[backends.BACKEND_ENV] = backend_name
        backends.set_backend(None)
    trace_path = getattr(args, "trace", None)
    flight_path = getattr(args, "flight_recorder", None)
    metrics_path = getattr(args, "metrics", None)

    if flight_path:
        from repro.observability import FLIGHT

        FLIGHT.arm(flight_path)

    if not trace_path and not metrics_path:
        return _dispatch(args)

    from repro.observability import (
        RecordingCollector,
        metrics_snapshot,
        using_collector,
        write_metrics_jsonl,
        write_trace,
    )

    code: int
    if trace_path:
        collector = RecordingCollector()
        with using_collector(collector):
            code = _dispatch(args)
        try:
            records = write_trace(trace_path, collector, metrics=metrics_snapshot())
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return code or 1
        print(f"trace: {records} records -> {trace_path}", file=sys.stderr)
    else:
        code = _dispatch(args)
    if metrics_path:
        try:
            write_metrics_jsonl(metrics_path, metrics_snapshot())
        except OSError as exc:
            print(f"error: cannot write metrics file: {exc}", file=sys.stderr)
            return code or 1
        print(f"metrics: snapshot -> {metrics_path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

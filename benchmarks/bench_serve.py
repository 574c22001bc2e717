"""Estimation server throughput + bit-identity (docs/SERVING.md).

Boots a real :class:`EstimationServer` on a loopback port and drives it
over actual HTTP via :class:`ServeClient` — the same transport production
clients use — measuring the two properties the serving layer promises:

- **Bit-identity, always enforced.** Every server answer (single
  estimates, batches, chain plans, and estimates over a shard-merged
  registration) must be bit-identical to a direct
  :meth:`EstimationService.submit` fed the same registrations in the same
  request order. Checked at every ``$REPRO_WORKERS`` setting in
  ``WORKERS_SETTINGS``, each lap against one serial direct replay — the
  ambient worker default must not perturb answers.
- **Warm throughput >= 10,000 estimates/sec.** Once the memo is hot, the
  server must sustain at least ``MIN_WARM_THROUGHPUT`` estimates per
  second through large batch POSTs (batching amortizes HTTP round-trips;
  single-request p50/p95 latency is reported alongside).

Runs standalone (``PYTHONPATH=src python benchmarks/bench_serve.py``) or
under pytest; either way it emits
``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

from conftest import bench_scale, write_bench_json
from repro.catalog.service import EstimationService, ServiceRequest
from repro.catalog.store import SketchStore
from repro.matrix.random import random_sparse
from repro.parallel import WORKERS_ENV
from repro.serve import EstimationServer, MatrixRegistry, ServeClient, start_server_thread
from repro.serve.protocol import decode_expr, encode_chain_solution

#: Warm estimates/second the server must sustain through batch POSTs.
MIN_WARM_THROUGHPUT = 10_000.0

#: ``$REPRO_WORKERS`` values (``None``: unset) at which bit-identity is
#: asserted.
WORKERS_SETTINGS = (None, "2")

#: Expressions per batch POST on the warm path.
BATCH_SIZE = 256

CHAIN_SEED = 17


def _dataset(scale: float):
    """Matrices sized by the benchmark scale; W arrives as row shards."""
    side = max(24, int(200 * scale))
    x = random_sparse(side, side, 0.05, seed=31)
    w = random_sparse(side, side, 0.08, seed=32)
    v = random_sparse(side, side, 0.1, seed=33)
    return x, w, v


def _wire_exprs():
    matmul_xw = {"op": "matmul", "inputs": [{"ref": "X"}, {"ref": "W"}]}
    return [
        matmul_xw,
        {"ref": "X"},
        {"op": "transpose", "inputs": [matmul_xw]},
        {"op": "matmul", "inputs": [matmul_xw, {"ref": "V"}]},
        {"op": "ewise_mult", "inputs": [{"ref": "X"}, {"ref": "W"}]},
    ]


def _register_all(client: ServeClient, x, w, v) -> None:
    half = w.shape[0] // 2
    client.register("X", x)
    # W lands as out-of-order row shards: the ingest-merge path is part of
    # the identity contract, not just the happy path.
    client.register_partitioned(
        "W", [w[half:], w[:half]], axis=0, indices=[1, 0]
    )
    client.register("V", v)


def _direct_service(x, w, v) -> tuple[EstimationService, MatrixRegistry]:
    service = EstimationService()
    registry = MatrixRegistry(service)
    half = w.shape[0] // 2
    registry.register("X", x)
    registry.register_partitioned(
        "W", [w[half:], w[:half]], axis=0, indices=[1, 0]
    )
    registry.register("V", v)
    return service, registry


@contextmanager
def _workers_env(value):
    """Run the block with ``$REPRO_WORKERS`` set to *value* (unset: None)."""
    saved = os.environ.pop(WORKERS_ENV, None)
    if value is not None:
        os.environ[WORKERS_ENV] = value
    try:
        yield
    finally:
        os.environ.pop(WORKERS_ENV, None)
        if saved is not None:
            os.environ[WORKERS_ENV] = saved


def _direct_replay(x, w, v) -> dict:
    """The request sequence answered by a direct service: singles (cold,
    then a warm second lap), one batch, one chain plan."""
    direct, registry = _direct_service(x, w, v)
    wires = _wire_exprs()
    singles = [
        direct.submit(ServiceRequest.estimate(decode_expr(wire, registry.resolve)))
        for wire in wires + wires
    ]
    batch = direct.submit(ServiceRequest.batch(
        [decode_expr(wire, registry.resolve) for wire in wires]
    ))
    chain = encode_chain_solution(direct.submit(ServiceRequest.chain(
        [registry.matrix(name) for name in ("X", "W", "V")],
        rng=np.random.default_rng(CHAIN_SEED),
    )))
    return {"singles": singles, "batch": batch, "chain": chain}


def _identity_pass(client: ServeClient, expected: dict, workers) -> dict:
    """Replay the same request sequence against the server; every field
    must match the direct replay exactly."""
    wires = _wire_exprs()
    mismatches = []

    for wire, want in zip(wires + wires, expected["singles"]):
        served = client.estimate(wire)
        for field in ("nnz", "sparsity", "fingerprint", "cached"):
            if served[field] != want[field]:
                mismatches.append((wire, field, served[field], want[field]))

    served_batch = client.estimate_batch(wires)
    for wire, got, want in zip(wires, served_batch, expected["batch"]):
        for field in ("nnz", "sparsity", "fingerprint"):
            if got[field] != want[field]:
                mismatches.append((wire, f"batch.{field}", got[field], want[field]))

    served_chain = client.optimize_chain(["X", "W", "V"], seed=CHAIN_SEED)
    for field in ("plan", "cost"):
        if served_chain[field] != expected["chain"][field]:
            mismatches.append(("chain", field, served_chain[field],
                               expected["chain"][field]))

    return {
        "repro_workers": workers,
        "requests": 2 * len(wires) + len(wires) + 1,
        "bit_identical": not mismatches,
        "mismatches": [
            {"request": str(w_), "field": f, "served": s, "direct": d}
            for w_, f, s, d in mismatches[:10]
        ],
    }


def _throughput_pass(client: ServeClient, scale: float) -> dict:
    """Warm-path throughput via batch POSTs + single-request latency."""
    wires = _wire_exprs()
    batch = [wires[i % len(wires)] for i in range(BATCH_SIZE)]
    client.estimate_batch(batch)  # prime the memo + parse cache

    target_batches = max(4, int(40 * scale))
    done = 0
    started = time.perf_counter()
    for _ in range(target_batches):
        done += len(client.estimate_batch(batch))
    elapsed = time.perf_counter() - started
    throughput = done / elapsed if elapsed else 0.0

    latencies = []
    for i in range(max(50, int(400 * scale))):
        t0 = time.perf_counter()
        client.estimate(wires[i % len(wires)])
        latencies.append(time.perf_counter() - t0)
    latencies.sort()

    return {
        "warm_estimates": done,
        "warm_seconds": elapsed,
        "warm_throughput_per_sec": throughput,
        "batch_size": BATCH_SIZE,
        "single_request_p50_ms": 1e3 * latencies[len(latencies) // 2],
        "single_request_p95_ms": 1e3 * latencies[int(len(latencies) * 0.95)],
        "single_requests_timed": len(latencies),
    }


def run_serve_benchmark(scale: float | None = None) -> dict:
    scale = bench_scale() if scale is None else scale
    x, w, v = _dataset(scale)

    with _workers_env(None):
        expected = _direct_replay(x, w, v)
    identity = []
    for workers in WORKERS_SETTINGS:
        with _workers_env(workers):
            service = EstimationService(store=SketchStore(num_shards=4))
            handle = start_server_thread(EstimationServer(service=service, port=0))
            client = ServeClient(handle.host, handle.port)
            try:
                _register_all(client, x, w, v)
                identity.append(_identity_pass(client, expected, workers))
            finally:
                client.close()
                handle.stop()

    service = EstimationService(store=SketchStore(num_shards=4))
    handle = start_server_thread(EstimationServer(service=service, port=0))
    client = ServeClient(handle.host, handle.port)
    try:
        _register_all(client, x, w, v)
        throughput = _throughput_pass(client, scale)
    finally:
        client.close()
        handle.stop()

    return {
        "scale": scale,
        "matrix_side": x.shape[0],
        "identity": identity,
        **throughput,
        "min_warm_throughput": MIN_WARM_THROUGHPUT,
    }


def test_serve_bit_identity_and_throughput():
    payload = run_serve_benchmark()
    write_bench_json("serve", payload)
    print(
        f"serve ({payload['matrix_side']}^2 matrices): warm "
        f"{payload['warm_throughput_per_sec']:,.0f} est/s over "
        f"{payload['warm_estimates']} estimates, p50 "
        f"{payload['single_request_p50_ms']:.2f} ms, p95 "
        f"{payload['single_request_p95_ms']:.2f} ms"
    )
    for lap in payload["identity"]:
        assert lap["bit_identical"], (
            f"server answers diverge from direct service at "
            f"REPRO_WORKERS={lap['repro_workers']}: {lap['mismatches']}"
        )
    assert payload["warm_throughput_per_sec"] >= MIN_WARM_THROUGHPUT, (
        f"warm throughput {payload['warm_throughput_per_sec']:,.0f}/s "
        f"below {MIN_WARM_THROUGHPUT:,.0f}/s"
    )


if __name__ == "__main__":
    test_serve_bit_identity_and_throughput()

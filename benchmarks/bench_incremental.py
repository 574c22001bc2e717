"""Streaming-update benchmark: patching an MNC sketch vs rebuilding it.

The streaming path (docs/STREAMING.md) claims that ingesting a delta into
an :class:`~repro.core.incremental.IncrementalSketch` and materializing
the exact sketch is far cheaper than the non-incremental alternative —
rescanning the mutated matrix with ``MNCSketch.from_matrix``. This module
measures that claim on the canonical streaming workload: a burst of
``BURST`` successive deltas, each appending 1% of the current row count
(the ISSUE's "1% delta"), with an exact sketch materialized after every
delta. The patch number is the per-delta average over the burst.

The rebuild number deliberately excludes assembling the mutated matrix:
it times only ``from_matrix`` on the final (largest) structure, i.e. the
cheapest single rebuild a non-incremental system could possibly pay per
delta. The asserted ``MIN_SPEEDUP`` therefore under-states the real
advantage.

Results land in ``benchmarks/results/BENCH_incremental.json``. A delete
burst (1% of rows per delta) is measured and reported alongside, but only
the append speedup is asserted.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_incremental.py``)
or under pytest (the CI ``streaming`` job runs it and uploads the JSON).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_scale, write_bench_json
from repro.core.incremental import (
    AppendRows,
    DeleteRows,
    IncrementalSketch,
    apply_update,
)
from repro.core.sketch import MNCSketch
from repro.matrix.random import random_sparse

#: Patch-vs-rebuild target on 1%-of-rows deltas (the ISSUE's acceptance
#: criterion). Measured headroom is several times this; the floor keeps
#: the assertion robust on slow CI runners.
MIN_SPEEDUP = 10.0

#: Deltas per measured burst.
BURST = 20

#: Fraction of the current row count touched by each delta.
DELTA_FRACTION = 0.01

DENSITY = 0.005


def _dims(scale: float) -> tuple[int, int]:
    m = max(20_000, int(round(200_000 * scale)))
    n = max(5_000, int(round(40_000 * scale)))
    return m, n


def _append_burst(m: int, n: int, rng: np.random.Generator) -> list[AppendRows]:
    deltas = []
    rows = m
    for _ in range(BURST):
        batch = max(1, int(rows * DELTA_FRACTION))
        deltas.append(AppendRows([
            np.flatnonzero(rng.random(n) < DENSITY) for _ in range(batch)
        ]))
        rows += batch
    return deltas


def _delete_burst(m: int, rng: np.random.Generator) -> list[DeleteRows]:
    deltas = []
    rows = m
    for _ in range(BURST):
        batch = max(1, int(rows * DELTA_FRACTION))
        deltas.append(DeleteRows(
            np.sort(rng.choice(rows, size=batch, replace=False))
        ))
        rows -= batch
    return deltas


def _time_burst(base, deltas) -> tuple[float, IncrementalSketch]:
    """Average seconds per (apply_update + exact sketch) cycle."""
    incremental = IncrementalSketch(base)
    start = time.perf_counter()
    for delta in deltas:
        apply_update(incremental, delta)
        incremental.sketch()
    return (time.perf_counter() - start) / len(deltas), incremental


def _time_rebuild(matrix, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        MNCSketch.from_matrix(matrix)
        best = min(best, time.perf_counter() - start)
    return best


def run_incremental_benchmark(scale: float | None = None) -> dict:
    scale = bench_scale() if scale is None else scale
    m, n = _dims(scale)
    base = random_sparse(m, n, DENSITY, seed=7)
    rng = np.random.default_rng(42)

    kinds: dict[str, dict] = {}
    for kind, deltas in (
        ("append_rows", _append_burst(m, n, rng)),
        ("delete_rows", _delete_burst(m, rng)),
    ):
        patch_seconds, incremental = _time_burst(base, deltas)
        mutated = incremental.to_matrix()
        # The patched sketch must stay bit-identical to the rebuild —
        # a benchmark that drifted from the verified contract would be
        # measuring a different data structure.
        patched = incremental.sketch()
        rebuilt = MNCSketch.from_matrix(mutated)
        assert np.array_equal(patched.hr, rebuilt.hr)
        assert np.array_equal(patched.hc, rebuilt.hc)
        rebuild_seconds = _time_rebuild(mutated)
        kinds[kind] = {
            "patch_seconds_per_delta": patch_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": rebuild_seconds / patch_seconds,
            "final_shape": list(mutated.shape),
            "final_nnz": int(mutated.nnz),
        }

    return {
        "scale": scale,
        "dims": {"rows": m, "cols": n, "density": DENSITY},
        "burst": BURST,
        "delta_fraction": DELTA_FRACTION,
        "min_speedup": MIN_SPEEDUP,
        "kinds": kinds,
    }


def _render(payload: dict) -> str:
    dims = payload["dims"]
    lines = [
        "incremental sketch maintenance "
        f"(scale={payload['scale']:g}, {dims['rows']}x{dims['cols']} "
        f"d={dims['density']:g}, burst of {payload['burst']} x "
        f"{payload['delta_fraction']:.0%} deltas)",
        f"{'delta kind':<16}{'patch ms':>12}{'rebuild ms':>12}{'speedup':>10}",
    ]
    for kind, result in payload["kinds"].items():
        lines.append(
            f"{kind:<16}"
            f"{result['patch_seconds_per_delta'] * 1e3:>12.2f}"
            f"{result['rebuild_seconds'] * 1e3:>12.2f}"
            f"{result['speedup']:>9.1f}x"
        )
    return "\n".join(lines)


def _enforce(payload: dict) -> None:
    achieved = payload["kinds"]["append_rows"]["speedup"]
    assert achieved >= payload["min_speedup"], (
        f"append_rows patch speedup {achieved:.1f}x is below the "
        f"{payload['min_speedup']:.0f}x acceptance floor"
    )


def test_incremental_benchmark():
    payload = run_incremental_benchmark()
    write_bench_json("incremental", payload)
    print(_render(payload))
    _enforce(payload)


if __name__ == "__main__":
    result = run_incremental_benchmark()
    write_bench_json("incremental", result)
    print(_render(result))
    _enforce(result)

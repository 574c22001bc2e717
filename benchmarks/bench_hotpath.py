"""Hot-path microbenchmarks: sketch construction, Algorithm 1, propagation, DP.

The estimation hot path is what the optimizer hammers: Appendix C's chain
DP evaluates O(n^3) cells, each one a ``sparse_matmul_flops`` scan plus a
``propagate_product`` that constructs a derived :class:`MNCSketch`. This
module times the four layers of that path in isolation:

- ``sketch_build_from_matrix`` — user-facing :meth:`MNCSketch.from_matrix`
  (CSR/CSC scan + extension vectors + full validation);
- ``sketch_construct`` — hot-path construction from existing count vectors
  (the trusted tier used by all internal propagation);
- ``sketch_construct_validated_eager`` — the same construction through the
  validating constructor with every summary statistic materialized, i.e.
  the pre-overhaul cost of each internal construction;
- ``alg1_estimate`` — :func:`estimate_product_nnz` (Algorithm 1);
- ``alg1_generic`` — Algorithm 1 with extensions disabled, forcing the
  generic density-map case (native ``np.log1p``/``np.sum``) on every lane;
- ``propagate`` — :func:`propagate_product` (Eq 11 scaling + rounding);
- ``chain_dp20`` — a 20-matrix ``optimize_chain_sparse`` DP (Appendix C).

The headline numbers always run under the ``numpy`` reference backend.
When numba is importable (or ``REPRO_BENCH_BACKENDS`` names backends
explicitly), the kernelized benches are re-timed per backend after a
``backends.warmup()`` call — so JIT compile time is recorded separately
(``jit_compile_seconds``) and excluded from the per-op timings — and the
payload gains a ``backends`` section with numba-vs-numpy speedups.

Results land in ``benchmarks/results/BENCH_hotpath.json`` together with a
fixed numpy calibration time (for cross-machine normalization; timed on
one BLAS thread, like every benchmark it normalizes) and, when
``benchmarks/baselines/hotpath_pre_pr.json`` has an entry for the current
scale, speedup ratios against the pre-overhaul code. Set
``REPRO_BENCH_ENFORCE_HOTPATH=1`` to turn the speedup targets (>=2x on
construction and Algorithm 1, >=3x on the chain DP) into hard assertions,
and ``REPRO_BENCH_ENFORCE_BACKEND=1`` to require numba >=2x on the chain DP
versus numpy.

``benchmarks/check_hotpath_regression.py`` consumes the same JSON to guard
against future regressions; see docs/PERFORMANCE.md.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_hotpath.py``) or
under pytest.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads (as e2ebench's pin_environment
# does): the benchmarks run on one thread, and the calibration's 384x384
# matmul at the default thread count reads ~6x faster or slower with the
# machine's cores and load, so a verdict normalized by it would follow
# the calibration instead of the code.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from conftest import bench_scale, write_bench_json  # noqa: E402
from repro import backends  # noqa: E402
from repro.core.estimate import estimate_product_nnz  # noqa: E402
from repro.core.propagate import propagate_product  # noqa: E402
from repro.core.sketch import MNCSketch  # noqa: E402
from repro.matrix.random import random_sparse  # noqa: E402
from repro.observability import METRICS  # noqa: E402
from repro.optimizer.mmchain import optimize_chain_sparse  # noqa: E402

BASELINE_DIR = Path(__file__).parent / "baselines"
PRE_PR_FILE = BASELINE_DIR / "hotpath_pre_pr.json"

#: Speedup targets versus the pre-overhaul baseline (enforced only when
#: ``REPRO_BENCH_ENFORCE_HOTPATH=1`` — cross-machine timings are noisy).
MIN_SPEEDUP = {
    "sketch_construct": 2.0,
    "alg1_estimate": 2.0,
    "chain_dp20": 3.0,
}

#: Benches re-timed under each non-reference kernel backend (the ones the
#: dispatch layer actually kernelizes; construction is backend-free).
BACKEND_BENCHES = ("alg1_estimate", "alg1_generic", "propagate", "chain_dp20")

#: numba-vs-numpy speedup targets (enforced only when
#: ``REPRO_BENCH_ENFORCE_BACKEND=1`` — the CI numba leg at scale 0.2).
#: ``alg1_generic`` has none: its density-map term runs the same numpy
#: code under every backend.
MIN_BACKEND_SPEEDUP = {
    "chain_dp20": 2.0,
}

CHAIN_LENGTH = 20

#: Summary statistics whose materialization the eager-construction bench
#: forces (pre-overhaul constructors computed all of them per sketch).
SUMMARY_ATTRS = (
    "max_hr", "max_hc", "nnz_rows", "nnz_cols", "rows_half_full",
    "cols_half_full", "rows_single", "cols_single", "total_nnz",
)


def _dims(scale: float) -> tuple[int, int]:
    """(microbench dimension, chain-DP dimension) for *scale*."""
    dim = max(200, int(round(10000 * scale)))
    chain_dim = max(100, int(round(5000 * scale)))
    return dim, chain_dim


#: Timed passes over the benches; each pass times one round of every bench
#: and of the calibration (see :func:`_time_interleaved`).
PASSES = 15


def _time_interleaved(
    fns: dict[str, tuple], passes: int = PASSES
) -> tuple[dict, float]:
    """Best-of-*passes* seconds per call of each bench, plus the best
    calibration round, with the rounds interleaved.

    *fns* maps a name to ``(callable, {"min_seconds": ...})``. A shared
    2-CPU VM runs a process at half speed for stretches of 0.2-2 s; a
    bench timed in back-to-back rounds can spend all of them inside one
    such stretch, and its verdict then follows the stretch. So each pass
    times one round of every bench in turn, and one round of the
    calibration that normalizes them, and each keeps its fastest round.
    A bench's repetition count is sized from a pilot call so each round
    runs for roughly its ``min_seconds`` (default 0.08), keeping timer
    resolution out of the result.

    Returns ``(name -> {"seconds_per_op", "reps"}, calibration_seconds)``.
    """
    reps = {}
    for name, (fn, opts) in fns.items():
        fn()  # warm-up: populates lazy caches, page-faults buffers
        start = time.perf_counter()
        fn()
        pilot = time.perf_counter() - start
        min_seconds = opts.get("min_seconds", 0.08)
        reps[name] = max(3, min(2000, int(min_seconds / max(pilot, 1e-9))))
    best = dict.fromkeys(fns, float("inf"))
    calibration = float("inf")
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()  # keep collection pauses out of the timed rounds
    try:
        for _ in range(passes):
            for name, (fn, _) in fns.items():
                count = reps[name]
                start = time.perf_counter()
                for _ in range(count):
                    fn()
                best[name] = min(best[name], (time.perf_counter() - start) / count)
            calibration = min(calibration, _calibration_seconds(rounds=1))
    finally:
        if gc_was_enabled:
            gc.enable()
    timed = {
        name: {"seconds_per_op": best[name], "reps": reps[name]} for name in fns
    }
    return timed, calibration


def _calibration_seconds(rounds: int = 5) -> float:
    """Fixed numpy workload used to normalize timings across machines
    (on the one BLAS thread pinned at the top of this module): the best
    of *rounds* chains of four 384x384 matmuls."""
    rng = np.random.default_rng(0)
    a = rng.random((384, 384))
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(4):
            a = a @ a
            a /= np.abs(a).max()
        best = min(best, time.perf_counter() - start)
    return best


def _construct_fast(sketch: MNCSketch):
    """Hot-path construction from existing count vectors.

    Uses :meth:`MNCSketch.trusted` when the build provides it (the
    post-overhaul fast tier); falls back to the validating constructor so
    the benchmark also runs against pre-overhaul checkouts.
    """
    trusted = getattr(MNCSketch, "trusted", None)
    make = trusted if trusted is not None else MNCSketch
    def build():
        return make(
            shape=sketch.shape, hr=sketch.hr, hc=sketch.hc,
            her=sketch.her, hec=sketch.hec,
            fully_diagonal=sketch.fully_diagonal, exact=sketch.exact,
        )
    return build


def _construct_validated_eager(sketch: MNCSketch):
    """Pre-overhaul construction cost: full validation + eager summaries."""
    def build():
        built = MNCSketch(
            shape=sketch.shape, hr=sketch.hr, hc=sketch.hc,
            her=sketch.her, hec=sketch.hec,
            fully_diagonal=sketch.fully_diagonal, exact=sketch.exact,
        )
        for attr in SUMMARY_ATTRS:
            getattr(built, attr)
        return built
    return build


def _chain_sketches(chain_dim: int, length: int) -> list[MNCSketch]:
    rng = np.random.default_rng(1234)
    sparsities = 10.0 ** rng.uniform(-3.0, -1.0, size=length)
    return [
        MNCSketch.synthetic(chain_dim, chain_dim, float(s), rng=rng)
        for s in sparsities
    ]


def _load_pre_pr(scale: float) -> dict | None:
    if not PRE_PR_FILE.exists():
        return None
    table = json.loads(PRE_PR_FILE.read_text())
    return table.get(f"{scale:g}")


def _bench_closures(scale: float) -> tuple[int, int, dict]:
    """(micro dim, chain dim, name -> (callable, timing kwargs)) for *scale*.

    One closure table serves every backend leg: the inputs are built once
    and each leg re-times the same callables under a different active
    backend (bit-identity means the work is identical by construction).
    """
    dim, chain_dim = _dims(scale)
    matrix = random_sparse(dim, dim, 0.01, seed=7)
    other = random_sparse(dim, dim, 0.005, seed=8)
    template = MNCSketch.from_matrix(matrix)
    h_a = MNCSketch.from_matrix(matrix)
    h_b = MNCSketch.from_matrix(other)
    prop_rng = np.random.default_rng(99)
    sketches = _chain_sketches(chain_dim, CHAIN_LENGTH)
    fns: dict[str, tuple] = {
        "sketch_build_from_matrix": (lambda: MNCSketch.from_matrix(matrix), {}),
        "sketch_construct": (_construct_fast(template), {}),
        "sketch_construct_validated_eager": (
            _construct_validated_eager(template), {}
        ),
        "alg1_estimate": (lambda: estimate_product_nnz(h_a, h_b), {}),
        # Extensions disabled forces the generic density-map path
        # (np.log1p/np.sum, shared by every backend) on every lane.
        "alg1_generic": (
            lambda: estimate_product_nnz(h_a, h_b, use_extensions=False), {}
        ),
        "propagate": (lambda: propagate_product(h_a, h_b, rng=prop_rng), {}),
        "chain_dp20": (
            lambda: optimize_chain_sparse(
                sketches, rng=np.random.default_rng(0), workers=1
            ),
            {"min_seconds": 0.2},
        ),
    }
    return dim, chain_dim, fns


def _extra_backends() -> list[str]:
    """Non-reference backends to re-time (``REPRO_BENCH_BACKENDS`` override).

    Defaults to ``numba`` when importable.
    """
    env = os.environ.get("REPRO_BENCH_BACKENDS")
    if env is not None:
        return [name for name in (p.strip() for p in env.split(",")) if name]
    return ["numba"] if backends.numba_importable() else []


def run_hotpath_benchmark(scale: float | None = None) -> dict:
    scale = bench_scale() if scale is None else scale
    dim, chain_dim, fns = _bench_closures(scale)

    # The headline numbers (and the committed baselines they are compared
    # against) are always the numpy reference backend, regardless of what
    # REPRO_BACKEND says — backend legs get their own payload section.
    with backends.use_backend("numpy"):
        backends.warmup()
        benches, calibration = _time_interleaved(fns)

    payload: dict = {
        "scale": scale,
        "dims": {"micro": dim, "chain": chain_dim, "chain_length": CHAIN_LENGTH},
        "calibration_seconds": calibration,
        "backend_reference": "numpy",
        "benchmarks": benches,
        "construct_speedup_within_run": (
            benches["sketch_construct_validated_eager"]["seconds_per_op"]
            / benches["sketch_construct"]["seconds_per_op"]
        ),
    }

    backend_results: dict[str, dict] = {}
    for name in _extra_backends():
        with backends.use_backend(name):
            jit_seconds = backends.warmup()
            timed, _ = _time_interleaved(
                {bench: fns[bench] for bench in BACKEND_BENCHES}
            )
        backend_results[name] = {
            "jit_compile_seconds": jit_seconds,
            "benchmarks": timed,
            "speedup_vs_numpy": {
                bench: (
                    benches[bench]["seconds_per_op"]
                    / timed[bench]["seconds_per_op"]
                )
                for bench in BACKEND_BENCHES
            },
        }
    if backend_results:
        payload["backends"] = backend_results

    payload["hotpath_counters"] = {
        name[len("hotpath."):]: int(value)
        for name, value in sorted(METRICS.snapshot().counters.items())
        if name.startswith("hotpath.")
    }

    pre_pr = _load_pre_pr(scale)
    if pre_pr is not None:
        speedups = {}
        for name, result in benches.items():
            old = pre_pr.get("benchmarks", {}).get(name, {}).get("seconds_per_op")
            if old:
                speedups[name] = old / result["seconds_per_op"]
        payload["pre_pr"] = {
            "calibration_seconds": pre_pr.get("calibration_seconds"),
            "speedups": speedups,
        }
    return payload


def _render(payload: dict) -> str:
    lines = [
        "hot-path microbenchmarks "
        f"(scale={payload['scale']:g}, dim={payload['dims']['micro']}, "
        f"chain {payload['dims']['chain_length']}x{payload['dims']['chain']})",
        f"{'bench':<36}{'us/op':>12}{'speedup vs pre-PR':>20}",
    ]
    speedups = payload.get("pre_pr", {}).get("speedups", {})
    for name, result in payload["benchmarks"].items():
        ratio = speedups.get(name)
        shown = f"{ratio:.2f}x" if ratio else "-"
        lines.append(
            f"{name:<36}{result['seconds_per_op'] * 1e6:>12.1f}{shown:>20}"
        )
    lines.append(
        f"{'(validated+eager)/trusted construct':<36}"
        f"{'':>12}{payload['construct_speedup_within_run']:>19.2f}x"
    )
    for backend_name, leg in payload.get("backends", {}).items():
        lines.append(
            f"backend={backend_name} "
            f"(jit compile {leg['jit_compile_seconds']:.3f}s)"
        )
        lines.append(f"{'bench':<36}{'us/op':>12}{'speedup vs numpy':>20}")
        for bench, result in leg["benchmarks"].items():
            ratio = leg["speedup_vs_numpy"][bench]
            lines.append(
                f"{bench:<36}{result['seconds_per_op'] * 1e6:>12.1f}"
                f"{f'{ratio:.2f}x':>20}"
            )
    return "\n".join(lines)


def _enforce(payload: dict) -> None:
    speedups = payload.get("pre_pr", {}).get("speedups", {})
    for name, target in MIN_SPEEDUP.items():
        achieved = speedups.get(name)
        assert achieved is not None, (
            f"no pre-PR baseline for {name} at scale {payload['scale']:g}"
        )
        assert achieved >= target, (
            f"{name}: {achieved:.2f}x speedup below the {target:.1f}x target"
        )


def _enforce_backend(payload: dict) -> None:
    """REPRO_BENCH_ENFORCE_BACKEND=1: numba must beat numpy by its targets."""
    leg = payload.get("backends", {}).get("numba")
    assert leg is not None, (
        "REPRO_BENCH_ENFORCE_BACKEND=1 but no numba leg ran "
        "(is numba installed / listed in REPRO_BENCH_BACKENDS?)"
    )
    for bench, target in MIN_BACKEND_SPEEDUP.items():
        achieved = leg["speedup_vs_numpy"][bench]
        assert achieved >= target, (
            f"numba {bench}: {achieved:.2f}x over numpy, below the "
            f"{target:.1f}x target"
        )


def _run_and_report() -> dict:
    payload = run_hotpath_benchmark()
    write_bench_json("hotpath", payload)
    print(_render(payload))
    if os.environ.get("REPRO_BENCH_ENFORCE_HOTPATH") == "1":
        _enforce(payload)
    if os.environ.get("REPRO_BENCH_ENFORCE_BACKEND") == "1":
        _enforce_backend(payload)
    return payload


def test_hotpath_benchmark():
    _run_and_report()


if __name__ == "__main__":
    _run_and_report()

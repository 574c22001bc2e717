"""Shared helpers: percentiles, the tail rule, environment pinning and
recording, memory readings, and the result line.

Everything here is pure Python over the standard library and numpy, so the
helpers can be unit-tested without starting a server.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Everything a run writes goes under this directory (git-ignored).
OUT_DIR = BENCH_DIR / "out"

#: Percentiles the tail rule may pick, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0)
#: The tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* distinct samples lie strictly above their
    :func:`percentile` *q* (exact integer arithmetic on the rank)."""
    if count == 0:
        return 0
    return count - 1 - (count - 1) * round(q * 100) // 10000


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p99/p95/p90 with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when even p90 has fewer."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs)) if logs else float("nan")


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def pin_environment(cache_dir: Path) -> None:
    """Pin the knobs that change what the program does, for this process
    and every process it starts."""
    os.environ["REPRO_WORKERS"] = "1"
    # One BLAS thread too: the kernels' long dot products would otherwise
    # fan out to the second CPU, which the serve client needs.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_MNC_CACHE"] = str(cache_dir)
    for name in list(os.environ):
        if name in ("REPRO_METRICS_DUMP", "REPRO_FLIGHT_DUMP") or name.startswith(
            "REPRO_BENCH_"
        ):
            del os.environ[name]
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH", "")
    if source not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = source + (os.pathsep + path if path else "")
    if source not in sys.path:
        sys.path.insert(0, source)


def calibration_seconds() -> float:
    """The fixed numpy workload ``benchmarks/bench_hotpath.py`` uses to
    normalise timings across machines (best of 5)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((384, 384))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(4):
            a = a @ a
            a /= np.abs(a).max()
        best = min(best, time.perf_counter() - start)
    return best


def environment_record() -> Dict[str, object]:
    import numpy
    import scipy

    from repro import backends

    return {
        "backend": backends.get_backend().name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_seconds": calibration_seconds(),
        "repro_workers": os.environ.get("REPRO_WORKERS"),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of *pid* (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def latency_metrics(seconds: List[float], tail_q: float, prefix: str = "latency"):
    """p50 and the fixed tail percentile of a latency sample, in ms."""
    return {
        f"{prefix}_p50_ms": (median(seconds) * 1e3, "ms"),
        f"{prefix}_tail_ms": (percentile(seconds, tail_q) * 1e3, "ms"),
    }


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]
) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })

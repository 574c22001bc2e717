"""Matrix format selection and memory models.

Mirrors the rules SystemML (and the paper, footnote 3) uses:

- a block is stored **sparse** when its sparsity is below 0.4 — above
  that the CSR overhead (value + column index per non-zero, row pointer
  per row) exceeds the dense layout;
- dense blocks cost ``m * n * 8`` bytes (FP64);
- sparse CSR blocks cost ``nnz * (8 + 4) + (m + 1) * 4`` bytes
  (FP64 values, int32 indices/pointers).

These constants are what the allocation experiments charge estimators
against; they match this reproduction's scipy substrate closely enough
(scipy may promote indices to int64 for very large matrices, a uniform
factor that does not affect comparisons).
"""

from __future__ import annotations

import enum

from repro.errors import ShapeError

#: SystemML's dense/sparse switch point (paper footnote 3): a block with at
#: least this fraction of non-zero cells is stored dense.
SPARSE_FORMAT_THRESHOLD = 0.4

_FP64 = 8
_INDEX = 4


class MatrixFormat(enum.Enum):
    """Physical block layout."""

    DENSE = "dense"
    SPARSE = "sparse"


def choose_format(sparsity: float, threshold: float = SPARSE_FORMAT_THRESHOLD) -> MatrixFormat:
    """Pick the block format for a matrix of the given (estimated) sparsity.

    Args:
        sparsity: fraction of non-zero cells in [0, 1].
        threshold: sparsity at or above which dense wins (default 0.4).
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ShapeError(f"sparsity must be in [0, 1], got {sparsity}")
    if sparsity >= threshold:
        return MatrixFormat.DENSE
    return MatrixFormat.SPARSE


def memory_bytes(m: int, n: int, nnz: float, fmt: MatrixFormat) -> float:
    """Memory footprint of an ``m x n`` block with *nnz* non-zeros in *fmt*.

    For dense blocks the non-zero count is irrelevant; for sparse blocks it
    determines the payload. Sparse allocation for a truly dense result is
    the paper's "wrong sparse allocation" failure mode — the returned size
    grows past the dense one, which the allocator reports as waste.
    """
    if m < 0 or n < 0 or nnz < 0:
        raise ShapeError("dimensions and nnz must be non-negative")
    if nnz > m * n:
        raise ShapeError(f"nnz {nnz} exceeds cell count {m * n}")
    if fmt is MatrixFormat.DENSE:
        return float(m) * float(n) * _FP64
    return nnz * (_FP64 + _INDEX) + (m + 1) * _INDEX


def optimal_memory_bytes(m: int, n: int, nnz: float) -> float:
    """Memory of the *best* format for the true non-zero count."""
    return min(
        memory_bytes(m, n, nnz, MatrixFormat.DENSE),
        memory_bytes(m, n, nnz, MatrixFormat.SPARSE),
    )

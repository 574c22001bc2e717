"""Structural property probes for sparse matrices.

These helpers compute exactly the quantities the MNC sketch and the baseline
estimators consume: non-zero counts per row/column, overall sparsity, and
structural predicates (diagonal, permutation). They all operate on the
*structure* of the matrix — explicit zeros are eliminated by the conversion
layer before counting.
"""

from __future__ import annotations

import numpy as np

from repro.matrix.conversion import MatrixLike, as_csr


def nnz(matrix: MatrixLike) -> int:
    """Number of structural non-zeros in *matrix*."""
    return int(as_csr(matrix).nnz)


def sparsity(matrix: MatrixLike) -> float:
    """Fraction of non-zero cells, ``nnz / (m * n)``.

    The paper calls this quantity "sparsity" (despite it being a density);
    we keep the paper's terminology throughout. Empty matrices have
    sparsity 0.0.
    """
    csr = as_csr(matrix)
    m, n = csr.shape
    if m == 0 or n == 0:
        return 0.0
    return csr.nnz / (m * n)


def density(matrix: MatrixLike) -> float:
    """Alias of :func:`sparsity` for readers who prefer the standard term."""
    return sparsity(matrix)


def row_nnz(matrix: MatrixLike) -> np.ndarray:
    """Non-zeros per row as an ``int64`` vector of length ``m``."""
    csr = as_csr(matrix)
    return np.diff(csr.indptr).astype(np.int64)


def col_nnz(matrix: MatrixLike) -> np.ndarray:
    """Non-zeros per column as an ``int64`` vector of length ``n``."""
    csr = as_csr(matrix)
    return np.bincount(csr.indices, minlength=csr.shape[1]).astype(
        np.int64, copy=False
    )


def is_diagonal(matrix: MatrixLike) -> bool:
    """True when every non-zero of *matrix* lies on the main diagonal.

    Note this is a *structural* predicate: a square all-zero matrix is
    diagonal by this definition. The MNC metadata additionally tracks
    *fully* diagonal matrices (dense diagonal); see
    :meth:`repro.core.sketch.MNCSketch.is_fully_diagonal`.
    """
    csr = as_csr(matrix)
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return bool(np.all(rows == csr.indices))


def is_fully_diagonal(matrix: MatrixLike) -> bool:
    """True for a square matrix whose diagonal is fully dense and all
    off-diagonal cells are zero — the paper's "fully diagonal" flag used for
    exact sketch propagation (Eq 12)."""
    csr = as_csr(matrix)
    m, n = csr.shape
    if m != n:
        return False
    return csr.nnz == m and is_diagonal(csr)


def is_symmetric(matrix: MatrixLike) -> bool:
    """True when the non-zero *structure* is symmetric (``A`` and ``A^T``
    share their support; values may differ)."""
    csr = as_csr(matrix)
    if csr.shape[0] != csr.shape[1]:
        return False
    transposed = as_csr(csr.transpose())
    if csr.nnz != transposed.nnz:
        return False
    difference = abs(csr.sign()) - abs(transposed.sign())
    difference = as_csr(difference)
    return difference.nnz == 0


def is_lower_triangular(matrix: MatrixLike) -> bool:
    """True when every non-zero sits on or below the main diagonal."""
    csr = as_csr(matrix)
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return bool(np.all(csr.indices <= rows))


def is_upper_triangular(matrix: MatrixLike) -> bool:
    """True when every non-zero sits on or above the main diagonal."""
    csr = as_csr(matrix)
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return bool(np.all(csr.indices >= rows))


def is_permutation(matrix: MatrixLike) -> bool:
    """True for a square 0/1-structure matrix with exactly one non-zero per
    row and per column."""
    csr = as_csr(matrix)
    m, n = csr.shape
    if m != n or csr.nnz != m:
        return False
    if not np.all(np.diff(csr.indptr) == 1):
        return False
    return bool(np.array_equal(np.sort(csr.indices), np.arange(n)))

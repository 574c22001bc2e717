"""Canonical conversion between dense arrays and sparse formats.

Every public entry point in the library accepts "matrix-like" inputs —
``numpy.ndarray`` (2-D), any ``scipy.sparse`` matrix/array, or nested lists —
and converts them once at the boundary. Internally the library works with
``scipy.sparse.csr_array``/``csc_array``; keeping the conversion in one module
means format quirks (duplicate entries, explicit zeros, 1-D inputs) are
handled exactly once.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError

MatrixLike = Union[np.ndarray, sp.spmatrix, sp.sparray, list]
"""Anything accepted at the public API boundary as a matrix."""

_INT32_MAX = np.iinfo(np.int32).max


def index_dtype(*bounds: int) -> type:
    """CSR index dtype for a matrix whose shape and ``nnz`` are *bounds*:
    int32 when every bound fits, as scipy itself chooses, else int64."""
    return np.int32 if max(bounds, default=0) <= _INT32_MAX else np.int64


def is_sparse(matrix: object) -> bool:
    """Return ``True`` when *matrix* is any scipy sparse container."""
    return sp.issparse(matrix)


def _validate_2d(shape: tuple[int, ...]) -> None:
    if len(shape) != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {shape}")
    if shape[0] < 0 or shape[1] < 0:
        raise ShapeError(f"matrix dimensions must be non-negative, got {shape}")


def as_csr(matrix: MatrixLike, copy: bool = False) -> sp.csr_array:
    """Convert *matrix* to a canonical CSR array.

    Canonical means: 2-D, duplicate entries summed, explicit zeros removed,
    indices sorted, and ``len(data) == len(indices) == nnz``. Estimators rely
    on ``nnz`` counting only *structural* non-zeros, so the explicit-zero
    elimination here is load-bearing.

    The caller's matrix is never modified. Canonical, zero-free
    ``csr_array`` input is returned as is (the same object unless *copy*).
    The arrays are rewritten (duplicates summed, zeros eliminated) only when
    the input is not in canonical format, ``data`` holds an explicit zero
    (the ``x != 0`` test scipy applies, so NaN counts as non-zero), or the
    arrays hold spare capacity past ``nnz``. A result that shares buffers
    with the input (the ``csr_array`` itself, or a wrapped ``csr_matrix``)
    is copied before it is rewritten.

    Args:
        matrix: dense array, sparse matrix/array, or nested lists.
        copy: force a copy even when *matrix* is already canonical CSR.

    Returns:
        A canonical ``scipy.sparse.csr_array``.
    """
    return _canonical(matrix, sp.csr_array, copy)


def as_csc(matrix: MatrixLike, copy: bool = False) -> sp.csc_array:
    """Convert *matrix* to a canonical CSC array (see :func:`as_csr`)."""
    return _canonical(matrix, sp.csc_array, copy)


def _canonical(
    matrix: MatrixLike, cls: type, copy: bool
) -> Union[sp.csr_array, sp.csc_array]:
    if sp.issparse(matrix):
        result = matrix if isinstance(matrix, cls) else cls(matrix)
        # Same format means shared buffers (a csr_matrix wrapped as a
        # csr_array keeps its data/indices/indptr): copy before rewriting.
        shared = matrix.format == result.format
    else:
        dense = np.asarray(matrix)
        if dense.ndim == 1:
            dense = dense.reshape(1, -1)
        _validate_2d(dense.shape)
        result = cls(dense)
        shared = False
    nnz = result.nnz
    rewrite = (
        not result.has_canonical_format
        or len(result.data) != nnz
        or len(result.indices) != nnz
        or not result.data.all()
    )
    if shared and (copy or rewrite):
        result = result.copy()
    if rewrite:
        result.sum_duplicates()
        result.eliminate_zeros()
    _validate_2d(result.shape)
    return result


def to_dense(matrix: MatrixLike) -> np.ndarray:
    """Return *matrix* as a dense 2-D ``numpy.ndarray``."""
    if sp.issparse(matrix):
        return matrix.toarray()
    dense = np.asarray(matrix)
    if dense.ndim == 1:
        dense = dense.reshape(1, -1)
    _validate_2d(dense.shape)
    return dense


def check_assumptions(matrix: MatrixLike) -> None:
    """Validate the paper's assumption A2: the matrix holds no NaN values.

    NaNs break sparse linear algebra semantics (``NaN * 0 = NaN``, paper
    Section 2), so every estimator here treats inputs as NaN-free. The
    structural conversion would silently treat NaN as "non-zero"; call this
    at ingestion boundaries to fail loudly instead.

    Raises:
        ShapeError: when any stored value is NaN.
    """
    if sp.issparse(matrix):
        data = matrix.data
    else:
        data = np.asarray(matrix)
    if data.dtype.kind == "f" and np.isnan(data).any():
        raise ShapeError(
            "matrix contains NaN values; assumption A2 of sparsity "
            "estimation (no NaNs) is violated"
        )


def structure_view(csr: sp.csr_array, dtype: type = np.int8) -> sp.csr_array:
    """All-ones *dtype* data over the structure of the canonical CSR *csr*.

    Only the data array is new: the view shares ``indices`` and ``indptr``
    with *csr*, so treat them as read-only. The one exception is int64 index
    arrays whose values fit int32 (the shape and ``nnz`` do), which are
    narrowed to int32 copies: operands then meet scipy's kernels with one
    index dtype, so scipy never widens the other operand's arrays to int64.
    """
    index_type = index_dtype(*csr.shape, csr.nnz)
    indices = csr.indices.astype(index_type, copy=False)
    indptr = csr.indptr.astype(index_type, copy=False)
    view = sp.csr_array(
        (np.ones(csr.nnz, dtype=dtype), indices, indptr), shape=csr.shape
    )
    view.has_canonical_format = True
    return view


def boolean_structure(matrix: MatrixLike) -> sp.csr_array:
    """Return the 0/1 non-zero structure of *matrix* as CSR with int8 data.

    This realizes assumption A1 of the paper (no cancellation): downstream
    ground-truth operations work on the structure, so adding ``+1`` and ``-1``
    can never annihilate a non-zero.

    The result is a :func:`structure_view` of the canonical CSR of *matrix*
    (*matrix* itself when it is a canonical ``csr_array``), sharing its
    index arrays.
    """
    return structure_view(as_csr(matrix))
